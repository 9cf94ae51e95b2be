"""Symmetric trace-free tensor components in velocity space.

Moment coefficients of rank n live on symmetric trace-free tensors.  Only a
small set of components is independent: 2n+1 in full 3D, n+1 once the state
is restricted to fields that are even in the z velocity component (the
planar reduction used for slab geometries).  This module enumerates
components, resolves the trace constraints exactly over the integers and
holds the one expansion matrix that maps independent components to the
multisets of a rank, which the basis, the symmetrizer and the symmetry
check all share.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

AXES = ("x", "y", "z")
FULL3D = "full3d"
PLANAR = "planar"
REDUCTIONS = (FULL3D, PLANAR)


def _check_reduction(reduction):
    if reduction not in REDUCTIONS:
        raise ValueError(f"unknown reduction {reduction!r}, expected one of {REDUCTIONS}")


def canonical(indices) -> tuple:
    """Sorted-tuple representative of a component multi-index."""
    t = tuple(sorted(indices))
    for a in t:
        if a not in AXES:
            raise ValueError(f"invalid axis label {a!r} in {indices!r}")
    return t


def multisets(n: int) -> list:
    """All distinct rank-n components as sorted tuples, lexicographic order."""
    return list(combinations_with_replacement(AXES, n))


def multiplicity(t) -> int:
    """Number of ordered index tuples that share the multiset t."""
    t = canonical(t)
    denom = math.prod(math.factorial(t.count(a)) for a in AXES)
    return math.factorial(len(t)) // denom


def parity(t, axis: str = "x") -> str:
    """Sign behaviour ('odd' or 'even') under reflection of one velocity axis.

    The radial factor of a basis function is even in every component, so the
    parity is set by the count of `axis` among the tensor indices alone.
    """
    return "odd" if canonical(t).count(axis) % 2 else "even"


def independent_components(n: int, reduction: str = FULL3D) -> list:
    """Independent components of a rank-n symmetric trace-free tensor.

    Full 3D keeps the 2n+1 multisets with at most one z index; the planar
    reduction keeps the n+1 multisets with none.  Ordered by z count, then
    lexicographically.
    """
    _check_reduction(reduction)
    if n < 0:
        raise ValueError("rank must be non-negative")
    zmax = 1 if reduction == FULL3D else 0
    out = [m for m in multisets(n) if m.count("z") <= zmax]
    out.sort(key=lambda m: (m.count("z"), m))
    return out


@lru_cache(maxsize=None)
def trace_expansion(n: int, reduction: str = FULL3D) -> dict:
    """Expand every rank-n component over the independent set.

    Returns {multiset: {independent multiset: int}}.  Repeated use of the
    trace constraint T_{m z z} = -T_{m x x} - T_{m y y} removes z pairs, so
    every coefficient is an integer; in the planar reduction any component
    with an odd z count vanishes.
    """
    _check_reduction(reduction)
    zmax = 1 if reduction == FULL3D else 0
    cache = {}

    def expand(m):
        if m in cache:
            return cache[m]
        zc = m.count("z")
        if reduction == PLANAR and zc % 2:
            res = {}
        elif zc <= zmax:
            res = {m: 1}
        else:
            base = tuple(a for a in m if a != "z") + ("z",) * (zc - 2)
            res = {}
            for rep in ("x", "y"):
                for comp, c in expand(canonical(base + (rep, rep))).items():
                    res[comp] = res.get(comp, 0) - c
            res = {k: v for k, v in res.items() if v}
        cache[m] = res
        return res

    return {m: expand(m) for m in multisets(n)}


@lru_cache(maxsize=None)
def _expansion(n: int, reduction: str = FULL3D):
    """The rank-n trace expansion as arrays: (kept, E, w).

    kept lists the multisets whose expansion is not identically zero (all
    of them in full 3D, those with an even z count in the planar
    reduction), E[multiset, independent component] holds the expansion
    coefficients and w the multiplicities.  A sum over all 3^n ordered
    index tuples is the w-weighted sum over kept.
    """
    expand = trace_expansion(n, reduction)
    indep = independent_components(n, reduction)
    kept = tuple(m for m in multisets(n)
                 if reduction == FULL3D or m.count("z") % 2 == 0)
    E = np.array([[float(expand[m].get(c, 0)) for c in indep] for m in kept])
    w = np.array([float(multiplicity(m)) for m in kept])
    E.flags.writeable = w.flags.writeable = False
    return kept, E, w
