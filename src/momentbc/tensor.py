"""Symmetric trace-free tensor components in velocity space.

Moment coefficients of rank n live on symmetric trace-free tensors.  Only a
small set of components is independent: 2n+1 in full 3D, n+1 once the state
is restricted to fields that are even in the z velocity component (the
planar reduction used for slab geometries).  This module enumerates
components, resolves the trace constraints exactly over the rationals and
exposes the expansion matrix that maps independent components to all 3^n
ordered index tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product

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


def full_tuples(n: int) -> list:
    """All 3^n ordered index tuples of rank n."""
    return list(product(AXES, repeat=n))


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

    Returns {multiset: {independent multiset: Fraction}}.  Repeated use of
    the trace constraint T_{m z z} = -T_{m x x} - T_{m y y} removes z pairs;
    in the planar reduction any component with an odd z count vanishes.
    All coefficients come out as integers.
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
            res = {m: Fraction(1)}
        else:
            base = tuple(a for a in m if a != "z") + ("z",) * (zc - 2)
            res = {}
            for rep in ("x", "y"):
                for comp, c in expand(canonical(base + (rep, rep))).items():
                    res[comp] = res.get(comp, Fraction(0)) - c
            res = {k: v for k, v in res.items() if v}
        cache[m] = res
        return res

    return {m: expand(m) for m in multisets(n)}


@dataclass(frozen=True)
class ComponentBasis:
    """Expansion of a rank-n trace-free symmetric tensor from its chart.

    matrix has one row per ordered index tuple (3^n rows, same order as
    `tuples`) and one column per independent component; entries are small
    integers stored as floats.
    """

    rank: int
    reduction: str
    independent: tuple
    tuples: tuple
    matrix: np.ndarray

    def row(self, t) -> np.ndarray:
        """Expansion coefficients of one ordered tuple (or multiset)."""
        key = canonical(t)
        coeffs = trace_expansion(self.rank, self.reduction)[key]
        out = np.zeros(len(self.independent))
        for comp, c in coeffs.items():
            out[self.independent.index(comp)] = float(c)
        return out


def expansion_matrix(n: int, reduction: str = FULL3D) -> ComponentBasis:
    """Build the full 3^n-row expansion matrix for rank n."""
    indep = tuple(independent_components(n, reduction))
    expand = trace_expansion(n, reduction)
    tuples = tuple(full_tuples(n))
    col = {comp: j for j, comp in enumerate(indep)}
    mat = np.zeros((len(tuples), len(indep)))
    for i, t in enumerate(tuples):
        for comp, c in expand[canonical(t)].items():
            mat[i, col[comp]] = float(c)
    return ComponentBasis(rank=n, reduction=reduction, independent=indep,
                          tuples=tuples, matrix=mat)
