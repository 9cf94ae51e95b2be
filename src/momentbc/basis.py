"""Hermite-Laguerre velocity-space basis and Gaussian moment integrals.

Basis functions are products of a normalized associated Laguerre polynomial
in xi.xi/2 and a trace-free harmonic tensor component; they are orthonormal
(in the trace-free tensor sense) under the unit Gaussian weight.  Working
units fix the reference density and temperature to one, so every integral
reduces to standard or half-range moments of the unit normal distribution.

Every Gaussian integral is one array product: the polynomials of each side
are stacked as coefficient rows over the monomial exponents they use, and
the moment table between those exponents sits in the middle,
G = C_p @ W @ C_q^T (see `_gram`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .tensor import (AXES, canonical, independent_components,
                     multiplicity, multisets, parity, trace_expansion)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}


class Polynomial3:
    """Sparse polynomial in the three velocity components.

    Terms are stored as {(i, j, k): coefficient} for xi_x^i xi_y^j xi_z^k.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for e, c in terms.items():
                e = tuple(int(v) for v in e)
                c = float(c)
                if c != 0.0:
                    data[e] = data.get(e, 0.0) + c
        self.terms = {e: c for e, c in data.items() if c != 0.0}

    @classmethod
    def constant(cls, c=1.0):
        return cls({(0, 0, 0): c})

    @classmethod
    def monomial(cls, exponents, c=1.0):
        return cls({tuple(exponents): c})

    @classmethod
    def axis(cls, axis):
        e = [0, 0, 0]
        e[_AXIS_INDEX[axis]] = 1
        return cls({tuple(e): 1.0})

    def coefficient(self, exponents) -> float:
        return self.terms.get(tuple(exponents), 0.0)

    @property
    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0.0) + c
        return Polynomial3(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0.0) - c
        return Polynomial3(out)

    def __neg__(self):
        return Polynomial3({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial3):
            out = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                    out[e] = out.get(e, 0.0) + c1 * c2
            return Polynomial3(out)
        return Polynomial3({e: c * other for e, c in self.terms.items()})

    __rmul__ = __mul__

    def reflected(self, axis) -> "Polynomial3":
        """Image under xi_axis -> -xi_axis."""
        i = _AXIS_INDEX[axis]
        return Polynomial3({e: c * (-1.0) ** e[i] for e, c in self.terms.items()})

    def __call__(self, x, y, z):
        total = 0.0
        for (i, j, k), c in self.terms.items():
            total = total + c * np.asarray(x) ** i * np.asarray(y) ** j * np.asarray(z) ** k
        return total

    def __repr__(self):
        parts = [f"{c:+.6g}*x^{e[0]}y^{e[1]}z^{e[2]}" for e, c in sorted(self.terms.items())]
        return "Polynomial3(" + " ".join(parts) + ")" if parts else "Polynomial3(0)"


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


def _coefficients(polys):
    """Coefficient rows of polys over the exponents they use, and those
    exponents as an (n, 3) integer array."""
    index = {}
    for p in polys:
        for e in p.terms:
            index.setdefault(e, len(index))
    C = np.zeros((len(polys), len(index)))
    for i, p in enumerate(polys):
        for e, c in p.terms.items():
            C[i, index[e]] = c
    return C, np.array(list(index), dtype=int).reshape(-1, 3)


def _gram(ps, qs, axis=None, half=None) -> np.ndarray:
    """Gaussian moment matrix G[i, j] = <p_i, xi_axis q_j>.

    With axis None the xi_axis factor is dropped; with half naming an axis
    the integral runs over the half space xi_half > 0 only.
    """
    Cp, ep = _coefficients(ps)
    Cq, eq = _coefficients(qs)
    W = np.ones((len(ep), len(eq)))
    for a, name in enumerate(AXES):
        k = ep[:, a, None] + eq[None, :, a] + (name == axis)
        moment = _half_moment if name == half else _full_moment
        W *= np.array([moment(i) for i in range(k.max(initial=0) + 1)])[k]
    return Cp @ W @ Cq.T


def inner_full(p: Polynomial3, q: Polynomial3) -> float:
    """Gaussian inner product over all velocity space."""
    return float(_gram([p], [q])[0, 0])


def inner_half(p: Polynomial3, q: Polynomial3, axis: str = "x") -> float:
    """Gaussian inner product restricted to the half space xi_axis > 0."""
    return float(_gram([p], [q], half=axis)[0, 0])


def laguerre_coefficients(n: int, s: int) -> list:
    """Coefficients c_p of the radial factor, excluding the (xi.xi/2)^{n/2} part.

    The radial factor is 2^{n/2} x^{n/2} sum_p c_p x^p, normalized so that
    the full basis functions have unit norm in the trace-free sense.
    """
    if n < 0 or s < 0:
        raise ValueError("orders must be non-negative")
    norm_sq = Fraction(math.factorial(n) * math.factorial(s))
    for j in range(s):
        norm_sq *= Fraction(2 * (n + j) + 3, 2)
    norm = 1.0 / math.sqrt(float(norm_sq))
    coeffs = []
    for p in range(s + 1):
        ratio = Fraction(1)
        for j in range(p, s):
            ratio *= Fraction(2 * (n + j) + 3, 2)
        coeffs.append(norm * float(ratio) * (-1) ** p * math.comb(s, p))
    return coeffs


@lru_cache(maxsize=None)
def harmonic_tensor(component) -> Polynomial3:
    """Trace-free harmonic polynomial |xi|^n nu_t for the index tuple t.

    Built from n-fold differentiation of 1/|xi| carried out exactly on
    rational terms of the form c x^a y^b z^c |xi|^{-k}.
    """
    t = canonical(component)
    n = len(t)
    # terms: {(a, b, c, k): Fraction} meaning coef * x^a y^b z^c * r^{-k}
    terms = {(0, 0, 0, 1): Fraction(1)}
    for axis in t:
        i = _AXIS_INDEX[axis]
        out = {}
        for (a, b, c, k), coef in terms.items():
            e = [a, b, c]
            if e[i]:
                key = (*(e[j] - (j == i) for j in range(3)), k)
                out[key] = out.get(key, Fraction(0)) + coef * e[i]
            key = (*(e[j] + (j == i) for j in range(3)), k + 2)
            out[key] = out.get(key, Fraction(0)) - coef * k
        terms = {key: v for key, v in out.items() if v}
    scale = Fraction((-1) ** n, math.prod(range(2 * n - 1, 0, -2)) if n else 1)
    # multiply by r^{2n+1}; every term then carries an even power r^{2m}
    poly = {}
    for (a, b, c, k), coef in terms.items():
        m2 = 2 * n + 1 - k
        assert m2 >= 0 and m2 % 2 == 0
        m = m2 // 2
        for i in range(m + 1):
            for j in range(m - i + 1):
                w = math.factorial(m) // (math.factorial(i) * math.factorial(j)
                                          * math.factorial(m - i - j))
                e = (a + 2 * i, b + 2 * j, c + 2 * (m - i - j))
                poly[e] = poly.get(e, Fraction(0)) + scale * coef * w
    return Polynomial3({e: float(v) for e, v in poly.items()})


@lru_cache(maxsize=None)
def basis_polynomial(n: int, s: int, component) -> Polynomial3:
    """Polynomial of the basis function with rank n, radial index s."""
    t = canonical(component)
    if len(t) != n:
        raise ValueError(f"component {t} does not have rank {n}")
    r2 = Polynomial3({(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0})
    radial = Polynomial3.constant(0.0)
    power = Polynomial3.constant(1.0)
    for p, c in enumerate(laguerre_coefficients(n, s)):
        radial = radial + (c * 0.5 ** p) * power
        power = power * r2
    return radial * harmonic_tensor(t)


@dataclass(frozen=True)
class BasisFunction:
    """One moment basis function: radial factor times tensor component."""

    rank: int
    radial: int
    component: tuple
    poly: Polynomial3
    parity_x: str
    parity_y: str

    @property
    def degree(self) -> int:
        return self.rank + 2 * self.radial

    @property
    def name(self) -> str:
        comp = "".join(self.component)
        return f"a_{comp}^({self.radial})" if comp else f"a^({self.radial})"


def _make_basis_function(n, s, component):
    t = canonical(component)
    return BasisFunction(rank=n, radial=s, component=t,
                         poly=basis_polynomial(n, s, t),
                         parity_x=parity(t, "x"), parity_y=parity(t, "y"))


@dataclass(frozen=True)
class BasisSet:
    """Ordered moment basis of one theory, split odd-first for a wall normal.

    entries holds the independent basis functions; expanded[i] is the
    polynomial of the full trace-free expansion behind entry i (the sum of
    all 3^n ordered-tuple basis polynomials weighted by the expansion
    coefficients), which is what appears when a distribution is
    reconstructed from its moments.
    """

    theory: object
    normal_axis: str
    entries: tuple
    expanded: tuple
    n_o: int
    n_e: int

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

    def blocks(self):
        """Distinct (rank, radial) pairs with their global column indices."""
        seen = {}
        for i, bf in enumerate(self.entries):
            seen.setdefault((bf.rank, bf.radial), []).append(i)
        return seen


def _expanded_polynomial(n, s, component, reduction):
    """Sum over all ordered tuples of the expansion behind one independent
    component, grouped by multiset with multiplicity weights."""
    expand = trace_expansion(n, reduction)
    t = canonical(component)
    out = Polynomial3.constant(0.0)
    for m in multisets(n):
        c = expand[m].get(t)
        if c:
            out = out + (float(c) * multiplicity(m)) * basis_polynomial(n, s, m)
    return out


def build_basis_set(theory, normal_axis: str = "x") -> BasisSet:
    """Enumerate and order the moments of a theory.

    Moments odd under reflection of the wall normal axis come first; inside
    each parity block the order is by polynomial degree n+2s, then tensor
    rank, then component (z count, then lexicographic).
    """
    if normal_axis not in ("x", "y"):
        raise ValueError("wall normals are restricted to the x and y axes")
    items = []
    for n in range(theory.max_rank + 1):
        for s in range(theory.radial_counts[n]):
            for ci, comp in enumerate(independent_components(n, theory.reduction)):
                bf = _make_basis_function(n, s, comp)
                odd = 0 if parity(comp, normal_axis) == "odd" else 1
                items.append(((odd, bf.degree, bf.rank, ci), bf))
    items.sort(key=lambda kv: kv[0])
    entries = tuple(bf for _, bf in items)
    n_o = sum(1 for key, _ in items if key[0] == 0)
    expanded = tuple(_expanded_polynomial(bf.rank, bf.radial, bf.component,
                                          theory.reduction) for bf in entries)
    return BasisSet(theory=theory, normal_axis=normal_axis, entries=entries,
                    expanded=expanded, n_o=n_o, n_e=len(entries) - n_o)


@dataclass(frozen=True)
class OrthogonalityReport:
    matrix: np.ndarray
    max_deviation: float

    @property
    def ok(self) -> bool:
        return self.max_deviation < 1e-12


def verify_orthogonality(bs: BasisSet) -> OrthogonalityReport:
    """Check the reconstruction identity: testing the expanded distribution
    behind moment b with basis function a recovers the identity matrix."""
    gram = _gram([bf.poly for bf in bs.entries], bs.expanded)
    return OrthogonalityReport(matrix=gram,
                               max_deviation=float(np.abs(gram - np.eye(bs.size)).max()))
