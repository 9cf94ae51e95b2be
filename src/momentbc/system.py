"""Assembly of symmetric hyperbolic moment systems.

A theory is fixed by its maximal tensor rank and the number of radial
(Laguerre) indices per rank.  The flux matrices are moment projections of
the free streaming operator; the symmetrizer follows from the quadratic
entropy over all tensor components, which makes every S A^(k) exactly
symmetric and splits the wall-normal flux into odd/even blocks.  A system
holds its characteristic decomposition and the chi-free gains of both wall
kinds, each built on first use and read-only.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

import numpy as np

from .tensor import FULL3D, PLANAR, REDUCTIONS
from .basis import BasisSet, _gram, build_basis_set


class MomentTheory(namedtuple("MomentTheory", "max_rank radial_counts reduction name",
                              defaults=(PLANAR, ""))):
    """Basis selection: maximal rank and radial count per rank.  An empty
    name becomes G<full3d_count>."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.reduction not in REDUCTIONS:
            raise ValueError(f"unknown reduction {self.reduction!r}")
        if self.max_rank < 0 or len(self.radial_counts) != self.max_rank + 1:
            raise ValueError("radial_counts must list one entry per rank 0..max_rank")
        if any(c < 1 for c in self.radial_counts):
            raise ValueError("each rank needs at least one radial index")
        if not self.name:
            self = super().__new__(cls, *self[:3], f"G{self.full3d_count}")
        return self

    # _replace builds through _make, which would skip the checks
    _make = classmethod(lambda cls, it: cls(*it))

    @property
    def full3d_count(self) -> int:
        return sum((2 * n + 1) * c for n, c in enumerate(self.radial_counts))

    @property
    def moment_count(self) -> int:
        per_rank = (lambda n: 2 * n + 1) if self.reduction == FULL3D else (lambda n: n + 1)
        return sum(per_rank(n) * c for n, c in enumerate(self.radial_counts))


def grad_theory(max_degree: int, reduction: str = PLANAR) -> MomentTheory:
    """Theory containing every basis function of total degree <= max_degree."""
    if max_degree < 2:
        raise ValueError("need max_degree >= 2 to include stress moments")
    counts = tuple((max_degree - n) // 2 + 1 for n in range(max_degree + 1))
    return MomentTheory(max_rank=max_degree, radial_counts=counts, reduction=reduction)


def theory_from_name(name: str, reduction: str = PLANAR) -> MomentTheory:
    """Resolve names like 'G20' within the full-degree family."""
    for lam in range(2, 30):
        th = grad_theory(lam, reduction)
        if th.name.lower() == name.lower():
            return th
    raise ValueError(f"unknown theory name {name!r}")


def assemble_symmetrizer(bs: BasisSet) -> np.ndarray:
    """Entropy symmetrizer: half the Gram matrix of the expansion columns.

    S_ab = 1/2 sum_t E_ta E_tb over all ordered tuples t, i.e. the block
    1/2 E^T diag(w) E per (rank, radial) pair, with w the multiplicities.
    Entries are exact half-integers.
    """
    return 0.5 * bs.expansion_weights


def assemble_flux(bs: BasisSet, axis: str = "x") -> np.ndarray:
    """Flux matrix A^(axis): moments of xi_axis times the reconstruction
    2S polys, taken as <polys, xi_axis polys> 2S."""
    return _gram(bs.polys, bs.polys, axis=axis) @ bs.expansion_weights


def bgk_projector(bs: BasisSet) -> np.ndarray:
    """Diagonal relaxation projector: zero on the collision invariants
    (density, velocity, temperature), identity elsewhere."""
    invariants = {(0, 0), (1, 0), (0, 1)}
    diag = np.array([0.0 if (bf.rank, bf.radial) in invariants else 1.0
                     for bf in bs.entries])
    return np.diag(diag)


class SymmetryReport(namedtuple("SymmetryReport", "axis max_asymmetry max_odd_odd")):
    """Worst asymmetry of the multiset-level flux integrals on one axis."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.max_asymmetry < 1e-10


def verify_full_symmetry(bs: BasisSet, axis: str = "x") -> SymmetryReport:
    """Cross-check of the raw flux integrals over all component pairs.

    Computes <psi_a, xi psi_b> on the multiset level for every pair of the
    theory's basis functions and reports the worst asymmetry, plus the
    largest odd-odd entry for the wall normal (exact zero by parity).
    The multiset-level stack is the basis set's, built on its first check.
    """
    multisets, P = bs.multiset_polys
    C = _gram(P, P, axis=axis)
    asym = float(np.abs(C - C.T).max())
    odd = np.array([m.count(axis) % 2 == 1 for m in multisets])
    max_oo = float(np.abs(C[np.ix_(odd, odd)]).max()) if odd.any() else 0.0
    return SymmetryReport(axis=axis, max_asymmetry=asym, max_odd_odd=max_oo)


class MomentSystem(namedtuple("MomentSystem", "basis A S P_bgk")):
    """Assembled first-order system d_t alpha + A^(k) d_k alpha = rhs, with
    the structure its walls and channel solvers derive from it, held once
    in its __dict__ as cached properties.  A maps each axis to its flux."""

    @property
    def size(self) -> int:
        return self.basis.size

    @property
    def n_o(self) -> int:
        return self.basis.n_o

    @property
    def n_e(self) -> int:
        return self.basis.n_e

    @property
    def normal_axis(self) -> str:
        return self.basis.normal_axis

    @property
    def A_normal(self) -> np.ndarray:
        return self.A[self.basis.normal_axis]

    @cached_property
    def flux_odd_even(self) -> np.ndarray:
        """Odd-even block Aoe of S A^(normal); the full matrix is
        [[0, Aoe], [Aoe^T, 0]] in the odd-first ordering.  Read by the
        Onsager gain, the wall form and the wall certificate.  Computed
        once, read-only."""
        Aoe = (self.S @ self.A_normal)[: self.n_o, self.n_o:].copy()
        Aoe.flags.writeable = False
        return Aoe

    @cached_property
    def mbc(self):
        """boundary.assemble_mbc of this system, (M_mbc, g): the raw
        accommodation gain and its wall-temperature column.  Neither
        depends on the accommodation coefficient, the kind or the wall's
        sign, so every boundary operator of the system shares them.
        Computed once, read-only."""
        from . import boundary  # boundary imports this module
        M, g = boundary.assemble_mbc(self)
        M.flags.writeable = g.flags.writeable = False
        return M, g

    @cached_property
    def obc(self):
        """boundary.assemble_obc of this system, (Theta_obc, diagnostics):
        the chi-free Onsager gain and the checks of its response.  Built
        on first use, so a system whose walls are only ever accommodation
        walls never needs an invertible Aoe_hat.  Computed once; the gain
        is read-only."""
        from . import boundary  # boundary imports this module
        theta, diagnostics = boundary.assemble_obc(self)
        theta.flags.writeable = False
        return theta, diagnostics

    @cached_property
    def characteristic(self) -> CharacteristicDecomposition:
        """characteristic_decomposition of this system, read by the
        stability check and every channel solver.  Computed once, read-only."""
        return _read_only(characteristic_decomposition(self))

    def restrict(self, idx) -> MomentSystem:
        """This system on the moments idx, a tangential-parity class
        (BasisSet.parity_classes), by slicing: flux, symmetrizer and
        relaxation have exactly zero blocks between classes.  The
        restriction builds its own gains on first use, from these slices.
        S^1/2 keeps the classes apart too, so its decomposition takes this
        system's S^1/2 and S^-1/2, sliced, and solves only its own block of
        the scaled flux: one system's solvers share one eigensolve of S.
        """
        ix = np.ix_(idx, idx)
        sub = MomentSystem(basis=self.basis.restrict(idx),
                           A={axis: A[ix] for axis, A in self.A.items()},
                           S=self.S[ix], P_bgk=self.P_bgk[ix])
        dec = self.characteristic
        # fills the characteristic property's cache, as its first read would
        vars(sub)["characteristic"] = _read_only(
            _decompose(sub.A_normal, dec.S_half[ix], dec.S_half_inv[ix]))
        return sub


def assemble_system(theory: MomentTheory, normal_axis: str = "x",
                    axes=("x", "y", "z"),
                    tangentially_even: bool = False) -> MomentSystem:
    """Build basis, flux matrices, symmetrizer and relaxation projector;
    with tangentially_even, on the tangentially even class alone
    (build_basis_set)."""
    bs = build_basis_set(theory, normal_axis, tangentially_even)
    if normal_axis not in axes:
        axes = tuple(axes) + (normal_axis,)
    A = {ax: assemble_flux(bs, ax) for ax in axes}
    return MomentSystem(basis=bs, A=A, S=assemble_symmetrizer(bs),
                        P_bgk=bgk_projector(bs))


class CharacteristicDecomposition(namedtuple(
        "CharacteristicDecomposition",
        "S_half S_half_inv X_minus X_zero X_plus lam_minus lam_plus")):
    """Eigenstructure of S^1/2 A^(n) S^-1/2 split by eigenvalue sign.

    Columns of X are orthonormal; lam_minus is ascending (most negative
    first), lam_plus ascending.  The zero block spans the kernel image.
    The split fluxes are cached in the decomposition's __dict__.
    """

    @property
    def n_neg(self) -> int:
        return len(self.lam_minus)

    @property
    def n_pos(self) -> int:
        return len(self.lam_plus)

    @property
    def n_zero(self) -> int:
        return self.X_zero.shape[1]

    @property
    def X(self) -> np.ndarray:
        return np.hstack([self.X_minus, self.X_zero, self.X_plus])

    @property
    def max_speed(self) -> float:
        speeds = np.concatenate([np.abs(self.lam_minus), np.abs(self.lam_plus)])
        return float(speeds.max()) if speeds.size else 0.0

    @cached_property
    def split_fluxes(self):
        """Upwind splitting A = A+ + A- of the normal flux, mapped back to
        moment space; computed once, read-only."""
        pair = []
        for X, lam in ((self.X_plus, self.lam_plus), (self.X_minus, self.lam_minus)):
            part = self.S_half_inv @ X @ np.diag(lam) @ X.T @ self.S_half
            part.flags.writeable = False
            pair.append(part)
        return tuple(pair)


# eigenvalues within _ZERO_TOL of the largest speed (or of 1) are standing modes
_ZERO_TOL = 1e-10


def characteristic_decomposition(sys: MomentSystem) -> CharacteristicDecomposition:
    """Orthogonal eigendecomposition of the scaled wall-normal flux.

    It describes the wall with outward normal +axis; the other wall's
    operator is the parity conjugate of its own (make_boundary_operator).
    """
    w, Q = np.linalg.eigh(sys.S)
    if w.min() <= 0:
        raise ValueError("symmetrizer is not positive definite")
    return _decompose(sys.A_normal, (Q * np.sqrt(w)) @ Q.T, (Q / np.sqrt(w)) @ Q.T)


def _decompose(A_normal, S_half, S_half_inv) -> CharacteristicDecomposition:
    """The decomposition of A_normal from given S^1/2 and S^-1/2."""
    M = S_half @ A_normal @ S_half_inv
    asym = np.abs(M - M.T).max()
    if asym > 1e-8:
        raise ValueError(f"scaled flux not symmetric (deviation {asym:.3e})")
    lam, X = np.linalg.eigh(0.5 * (M + M.T))
    cut = _ZERO_TOL * max(np.abs(lam).max(), 1.0)
    neg = lam < -cut
    pos = lam > cut
    zero = ~(neg | pos)
    return CharacteristicDecomposition(
        S_half=S_half, S_half_inv=S_half_inv,
        X_minus=X[:, neg], X_zero=X[:, zero], X_plus=X[:, pos],
        lam_minus=lam[neg], lam_plus=lam[pos])


def _read_only(dec: CharacteristicDecomposition) -> CharacteristicDecomposition:
    for array in dec:
        array.flags.writeable = False
    return dec
