"""Hermite-Laguerre velocity-space basis and Gaussian moment integrals.

Basis functions are products of a normalized associated Laguerre polynomial
in xi.xi/2 and a trace-free harmonic tensor component; they are orthonormal
(in the trace-free tensor sense) under the unit Gaussian weight.  Working
units fix the reference density and temperature to one, so every integral
reduces to standard or half-range moments of the unit normal distribution.

A polynomial is a dense coefficient array c[i, j, k] of
xi_x^i xi_y^j xi_z^k (numpy's polyval3d convention); a theory stacks its
polynomials as (count, D+1, D+1, D+1) arrays, D being its top degree.
Every Gaussian integral is one array product: each stack is cut to the
monomials it uses, and the moment table between those exponents sits in
the middle, G = C_p @ W @ C_q^T (see `_gram`).

Stacks are built a (rank, radial) block at a time (`_radial_block`): the
block's harmonic tensors are stacked once and each term of the radial
factor is added to all of them in one operation.

A theory keeps one stack, the independent basis polynomials.  The
distribution reconstructed from a state sums the basis polynomials of
all 3^n ordered index tuples; since a dependent component's polynomial
is the trace expansion of the independent ones, that sum is the integer
weight matrix E^T diag(w) E = 2S (`BasisSet.expansion_weights`) times the
stack.  The symmetry check integrates every kept multiset's polynomial
instead; that second stack is held too (`BasisSet.multiset_polys`),
built on the first check.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property, lru_cache

import numpy as np

from .tensor import (AXES, _expansion, canonical, independent_components,
                     parity)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}


@lru_cache(maxsize=None)
def _full_moment(k: int) -> float:
    # E[X^k] for X ~ N(0,1): (k-1)!! for even k, zero for odd k
    if k % 2:
        return 0.0
    return float(math.prod(range(k - 1, 0, -2))) if k else 1.0


@lru_cache(maxsize=None)
def _half_moment(k: int) -> float:
    # int_0^inf x^k N(0,1) dx; h0 = 1/2, h1 = 1/sqrt(2 pi), hk = (k-1) h_{k-2}
    if k == 0:
        return 0.5
    if k == 1:
        return 1.0 / _SQRT_2PI
    return (k - 1) * _half_moment(k - 2)


def _used(C):
    """Columns of a flattened stack that hold a nonzero coefficient, and
    their exponents as an (n, 3) array."""
    flat = C.reshape(len(C), -1)
    cols = np.flatnonzero(flat.any(axis=0))
    return flat[:, cols], np.column_stack(np.unravel_index(cols, C.shape[1:]))


def _gram(P, Q, axis=None, half=None) -> np.ndarray:
    """Gaussian moment matrix G[i, j] = <P_i, xi_axis Q_j> of two stacks.

    With axis None the xi_axis factor is dropped; with half naming an axis
    the integral runs over the half space xi_half > 0 only.
    """
    Cp, ep = _used(P)
    Cq, eq = (Cp, ep) if Q is P else _used(Q)
    W = np.ones((len(ep), len(eq)))
    for a, name in enumerate(AXES):
        k = ep[:, a, None] + eq[None, :, a] + (name == axis)
        moment = _half_moment if name == half else _full_moment
        W *= np.array([moment(i) for i in range(k.max(initial=0) + 1)])[k]
    return Cp @ W @ Cq.T


@lru_cache(maxsize=None)
def _r2_power(m) -> tuple:
    """Terms of (xi.xi)^m as (exponents, multinomial weight) pairs."""
    return tuple(((2 * i, 2 * j, 2 * (m - i - j)),
                  math.factorial(m) // (math.factorial(i) * math.factorial(j)
                                        * math.factorial(m - i - j)))
                 for i in range(m + 1) for j in range(m - i + 1))


def laguerre_coefficients(n: int, s: int) -> list:
    """Coefficients c_p of the radial factor, excluding the (xi.xi/2)^{n/2} part.

    The radial factor is 2^{n/2} x^{n/2} sum_p c_p x^p, normalized so that
    the full basis functions have unit norm in the trace-free sense.
    """
    if n < 0 or s < 0:
        raise ValueError("orders must be non-negative")
    # the squared norm n! s! prod_j (2(n+j)+3)/2 and the ratios are integers
    # over powers of two; int / int rounds correctly
    odd = [2 * (n + j) + 3 for j in range(s)]
    norm = 1.0 / math.sqrt(math.factorial(n) * math.factorial(s) * math.prod(odd) / 2 ** s)
    coeffs = []
    for p in range(s + 1):
        ratio = math.prod(odd[p:]) / 2 ** (s - p)
        coeffs.append(norm * ratio * (-1) ** p * math.comb(s, p))
    return coeffs


@lru_cache(maxsize=None)
def _derivative(t) -> dict:
    """Numerator of the derivative of 1/|xi| along the sorted index tuple t.

    The derivative is P |xi|^{-(2n+1)}, n = len(t), with P a homogeneous
    degree-n integer polynomial held as {(a, b, c): int}.  One step of
    d_i (P |xi|^{-(2k+1)}) = (|xi|^2 d_i P - (2k+1) xi_i P) |xi|^{-(2k+3)}
    extends the cached prefix t[:-1].
    """
    if not t:
        return {(0, 0, 0): 1}
    i = _AXIS_INDEX[t[-1]]
    odd = 2 * len(t) - 1
    out = {}
    for e, v in _derivative(t[:-1]).items():
        if e[i]:  # |xi|^2 d_i P
            d = list(e)
            d[i] -= 1
            for j in range(3):
                d[j] += 2
                key = tuple(d)
                out[key] = out.get(key, 0) + v * e[i]
                d[j] -= 2
        u = list(e)  # -(2k+1) xi_i P
        u[i] += 1
        key = tuple(u)
        out[key] = out.get(key, 0) - odd * v
    return {e: v for e, v in out.items() if v}


@lru_cache(maxsize=None)
def harmonic_tensor(component) -> np.ndarray:
    """Trace-free harmonic polynomial |xi|^n nu_t for the index tuple t.

    The n-fold derivative of 1/|xi| along t is P |xi|^{-(2n+1)}, with P
    built exactly in integers by `_derivative`; the harmonic polynomial is
    P / ((-1)^n (2n-1)!!), returned as an (n+1, n+1, n+1) coefficient array.
    """
    t = canonical(component)
    n = len(t)
    denom = (-1) ** n * math.prod(range(2 * n - 1, 0, -2))
    out = np.zeros((n + 1,) * 3)
    for e, v in _derivative(t).items():
        out[e] = v / denom
    out.flags.writeable = False
    return out


def _radial_block(n: int, s: int, components, degree: int) -> np.ndarray:
    """Basis polynomials of rank n and radial index s, one per component
    (canonical rank-n tuples), as a (count, D+1, D+1, D+1) stack, D the
    given degree.

    The harmonic tensors are stacked once and every term of the radial
    factor is added to the whole block in one operation, so each
    coefficient sees the same sequence of additions as when it is built
    on its own.
    """
    H = np.stack([harmonic_tensor(t) for t in components])
    out = np.zeros((len(components),) + (degree + 1,) * 3)
    for p, c in enumerate(laguerre_coefficients(n, s)):
        for (i, j, k), w in _r2_power(p):
            out[:, i:i + n + 1, j:j + n + 1, k:k + n + 1] += ((c * 0.5 ** p) * w) * H
    return out


@lru_cache(maxsize=None)
def basis_polynomial(n: int, s: int, component) -> np.ndarray:
    """Coefficient array, of shape (n+2s+1,) * 3, of the basis function
    with rank n and radial index s."""
    t = canonical(component)
    if len(t) != n:
        raise ValueError(f"component {t} does not have rank {n}")
    out = _radial_block(n, s, (t,), n + 2 * s)[0]
    out.flags.writeable = False
    return out


class BasisFunction(namedtuple("BasisFunction", "rank radial component")):
    """One moment basis function: radial factor times tensor component."""

    __slots__ = ()

    @property
    def degree(self) -> int:
        return self.rank + 2 * self.radial

    @property
    def name(self) -> str:
        comp = "".join(self.component)
        return f"a_{comp}^({self.radial})" if comp else f"a^({self.radial})"


class BasisSet(namedtuple("BasisSet",
                          "theory normal_axis entries polys n_o n_e slots")):
    """Ordered moment basis of one theory, split odd-first for a wall normal.

    entries holds the independent basis functions and polys their
    coefficient arrays, one (size, D+1, D+1, D+1) stack.  The polynomial
    a distribution is reconstructed with is not stored: it is 2S times
    this stack (see expansion_weights).  slots holds each entry's position
    in the theory's whole basis: 0..size-1 unless the set keeps only some
    tangential-parity classes (build_basis_set, restrict).  The set keeps
    a __dict__ for its cached properties.
    """

    @property
    def size(self) -> int:
        return len(self.entries)

    def index_of(self, n: int, s: int, component=()) -> int:
        t = canonical(component)
        for i, bf in enumerate(self.entries):
            if bf.rank == n and bf.radial == s and bf.component == t:
                return i
        raise KeyError(f"no moment with rank {n}, radial {s}, component {t}")

    def names(self) -> list:
        return [bf.name for bf in self.entries]

    def parity_signs(self, axis: str) -> np.ndarray:
        """Diagonal of the state-space reflection for one axis."""
        return np.array([-1.0 if parity(bf.component, axis) == "odd" else 1.0
                         for bf in self.entries])

    @cached_property
    def parity_classes(self) -> tuple:
        """Moment indices of each tangential-parity class, all-even class first.

        A class holds the moments that share one tuple of parity_signs(a)
        over the axes a other than the wall normal.  The flux along the
        normal, the symmetrizer, the relaxation, both wall gains and the
        heating keep these parities, so the march operator and every wall
        certificate split over the classes: two planar (x even or odd),
        four in full3d.  Computed once, read-only.
        """
        signs = np.array([self.parity_signs(a) for a in "xyz"
                          if a != self.normal_axis]).T
        keys = sorted(set(map(tuple, signs.tolist())), reverse=True)
        classes = tuple(np.flatnonzero((signs == key).all(axis=1)) for key in keys)
        for idx in classes:
            idx.flags.writeable = False
        return classes

    def restrict(self, idx) -> BasisSet:
        """The entries idx (ascending, so odd-first still) of this set."""
        idx = np.asarray(idx)
        n_o = int(np.count_nonzero(idx < self.n_o))
        return BasisSet(theory=self.theory, normal_axis=self.normal_axis,
                        entries=tuple(self.entries[i] for i in idx),
                        polys=self.polys[idx], n_o=n_o, n_e=idx.size - n_o,
                        slots=self.slots[idx])

    def blocks(self):
        """Distinct (rank, radial) pairs with their global column indices."""
        seen = {}
        for i, bf in enumerate(self.entries):
            seen.setdefault((bf.rank, bf.radial), []).append(i)
        return seen

    @cached_property
    def expansion_weights(self) -> np.ndarray:
        """Exact integer weights E^T diag(w) E = 2S of the trace-free
        expansion, one block per (rank, radial) pair; times polys they
        give the reconstruction behind every moment.  Computed once,
        read-only."""
        reduction = self.theory.reduction
        W = np.zeros((self.size, self.size))
        per_rank = {}
        for (n, s), cols in self.blocks().items():
            if n not in per_rank:
                _, E, w = _expansion(n, reduction)
                per_rank[n] = (E.T * w) @ E
            indep = independent_components(n, reduction)
            idx = [indep.index(self.entries[i].component) for i in cols]
            W[np.ix_(cols, cols)] = per_rank[n][np.ix_(idx, idx)]
        W.flags.writeable = False
        return W

    @cached_property
    def multiset_polys(self):
        """The basis polynomial of every kept multiset (tensor/_expansion)
        of every (rank, radial) block, as (multisets, stack) with the
        stack shaped like polys: the component-level functions behind
        verify_full_symmetry.  Computed once, read-only."""
        reduction = self.theory.reduction
        degree = self.polys.shape[1] - 1
        multisets, blocks = [], []
        for n, s in self.blocks():
            kept = _expansion(n, reduction)[0]
            multisets += kept
            blocks.append(_radial_block(n, s, kept, degree))
        P = np.concatenate(blocks)
        P.flags.writeable = False
        return tuple(multisets), P


def _ordered_moments(theory, normal_axis: str) -> list:
    """The basis functions of a theory, in the order of its basis.

    Moments odd under reflection of the wall normal axis come first; inside
    each parity block the order is by polynomial degree n+2s, then tensor
    rank, then component (z count, then lexicographic).
    """
    items = []
    for n in range(theory.max_rank + 1):
        for s in range(theory.radial_counts[n]):
            for ci, comp in enumerate(independent_components(n, theory.reduction)):
                odd = 0 if parity(comp, normal_axis) == "odd" else 1
                items.append(((odd, n + 2 * s, n, ci), BasisFunction(n, s, comp)))
    items.sort(key=lambda kv: kv[0])
    return [bf for _, bf in items]


def build_basis_set(theory, normal_axis: str = "x",
                    tangentially_even: bool = False) -> BasisSet:
    """Enumerate and order the moments of a theory (_ordered_moments).

    With tangentially_even only the moments even along every tangential
    axis are kept, in the same order: the whole basis's parity_classes[0],
    with its positions there as slots.
    """
    if normal_axis not in ("x", "y"):
        raise ValueError("wall normals are restricted to the x and y axes")
    ordered = _ordered_moments(theory, normal_axis)
    tangential = [a for a in AXES if a != normal_axis]
    slots = [i for i, bf in enumerate(ordered) if not tangentially_even
             or all(parity(bf.component, a) == "even" for a in tangential)]
    entries = tuple(ordered[i] for i in slots)
    n_o = sum(1 for bf in entries if parity(bf.component, normal_axis) == "odd")
    degree = max(bf.degree for bf in entries)
    bs = BasisSet(theory=theory, normal_axis=normal_axis, entries=entries,
                  polys=np.zeros((len(entries),) + (degree + 1,) * 3),
                  n_o=n_o, n_e=len(entries) - n_o, slots=np.array(slots))
    for (n, s), cols in bs.blocks().items():
        bs.polys[cols] = _radial_block(n, s, [entries[i].component for i in cols], degree)
    return bs


class OrthogonalityReport(namedtuple("OrthogonalityReport", "matrix max_deviation")):
    """Reconstruction-identity matrix and its largest deviation from I."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.max_deviation < 1e-12


def verify_orthogonality(bs: BasisSet) -> OrthogonalityReport:
    """Check the reconstruction identity: testing the reconstruction
    behind moment b with basis function a, <polys, polys> 2S, recovers
    the identity matrix."""
    gram = _gram(bs.polys, bs.polys) @ bs.expansion_weights
    return OrthogonalityReport(matrix=gram,
                               max_deviation=float(np.abs(gram - np.eye(bs.size)).max()))
