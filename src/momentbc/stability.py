"""Energy stability test for wall boundary operators.

A boundary operator is admissible when the kernel of the wall-normal flux
lies in its kernel and the boundary quadratic form is nonnegative on the
reflected incoming characteristics.  check_stability evaluates both
conditions numerically from the characteristic decomposition, for one
operator.  wall_certificate evaluates them once for a wall kind, for every
accommodation coefficient at once, per tangential-parity class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boundary import _held_gain
from .system import _ZERO_TOL, CharacteristicDecomposition, MomentSystem


@dataclass(frozen=True)
class StabilityReport:
    """Admissibility verdict of one wall operator, with its evidence."""

    verdict: str                  # 'stable', 'unstable' or 'degenerate'
    kernel_ok: bool
    kernel_residual: float
    min_schur_eig: float
    schur: np.ndarray
    reflection_cond: float
    details: dict = field(default_factory=dict)

    @property
    def stable(self) -> bool:
        return self.verdict == "stable"


# kernel residual below which B annihilates the standing modes
_KERNEL_TOL = 1e-9
# reflection-form eigenvalues down to -_PSD_TOL (relative) count as neutral
_PSD_TOL = 1e-9
# margin above zero of the strict positivity reading
_MARGIN = 1e-10


def check_stability(dec: CharacteristicDecomposition, B: np.ndarray) -> StabilityReport:
    """Evaluate the two admissibility conditions for boundary rows B.

    B must have one row per incoming characteristic, as many as the odd
    moments, with its columns in the odd-first ordering.  The first
    condition is that the zero-speed block B S^-1/2 X0 vanishes.  The
    standing modes have no odd part, so that block is B_e S_e^-1/2 X0_e,
    from the rows' even block, and the kernel residual is its spectral
    norm relative to that of B_e S_e^-1/2: it depends neither on the basis
    X0 that the eigensolver picks for the degenerate zero eigenspace nor
    on a scaling of B, and for a wall [I | -sign 2 beta Theta] not on
    beta, where the identity block would dominate a norm of all of
    B S^-1/2 as beta -> 0 (0 when the even block vanishes).  The second
    condition is positive semi-definiteness of the reflection form
    R+^T Lam- R+ + Lam+ with R+ = -inv(B-) B+.

    A zero eigenvalue of the reflection form is a neutral, perfectly
    reflected mode: outgoing energy exactly balances incoming energy.
    The no-penetration row of a wall operator always produces one such
    mode, and since that row carries no wall data the mode cannot be
    forced.  The verdict therefore accepts eigenvalues down to -_PSD_TOL;
    the strict reading (min eigenvalue > _MARGIN) is reported in
    details["strictly_positive"].
    """
    B = np.asarray(B, dtype=float)
    if B.shape[0] != dec.n_neg:
        raise ValueError(f"expected {dec.n_neg} boundary rows, got {B.shape[0]}")
    Bt = B @ dec.S_half_inv
    B_minus = Bt @ dec.X_minus
    B_plus = Bt @ dec.X_plus

    # relative to the even block, the residual is invariant under B -> c*B
    # and free of the wall's gain
    n_o = B.shape[0]
    B_e = B[:, n_o:]
    scale_B = float(np.linalg.norm(B_e @ dec.S_half_inv[n_o:, n_o:], 2)) if B_e.size else 0.0
    B_zero_e = B_e @ (dec.S_half_inv @ dec.X_zero)[n_o:]
    raw_residual = float(np.linalg.norm(B_zero_e, 2)) if B_zero_e.size else 0.0
    kernel_residual = raw_residual / scale_B if scale_B > 0 else raw_residual
    kernel_ok = kernel_residual < _KERNEL_TOL

    sv = np.linalg.svd(B_minus, compute_uv=False)
    cond = float(sv.max() / sv.min()) if sv.min() > 0 else np.inf
    details = {"n_neg": dec.n_neg, "n_zero": dec.n_zero, "n_pos": dec.n_pos,
               "kernel_residual_raw": raw_residual}
    if not np.isfinite(cond) or sv.min() < 1e-12 * max(sv.max(), 1.0):
        return StabilityReport(verdict="degenerate", kernel_ok=kernel_ok,
                               kernel_residual=kernel_residual,
                               min_schur_eig=float("nan"),
                               schur=np.empty((0, 0)),
                               reflection_cond=cond, details=details)

    R_plus = -np.linalg.solve(B_minus, B_plus)
    schur = R_plus.T @ np.diag(dec.lam_minus) @ R_plus + np.diag(dec.lam_plus)
    schur = 0.5 * (schur + schur.T)
    eigs = np.linalg.eigvalsh(schur)
    min_eig = float(eigs.min()) if eigs.size else float("inf")
    scale = max(float(dec.lam_plus.max()) if dec.lam_plus.size else 1.0, 1.0)
    psd_ok = min_eig >= -_PSD_TOL * scale
    details["strictly_positive"] = bool(min_eig > _MARGIN * scale)
    details["n_schur_zero"] = int(np.sum(np.abs(eigs) <= _PSD_TOL * scale))
    verdict = "stable" if (kernel_ok and psd_ok) else "unstable"
    return StabilityReport(verdict=verdict, kernel_ok=kernel_ok,
                           kernel_residual=kernel_residual,
                           min_schur_eig=min_eig, schur=schur,
                           reflection_cond=cond, details=details)


@dataclass(frozen=True)
class WallCertificate:
    """Chi-free admissibility of one wall kind, one entry per
    tangential-parity class (BasisSet.parity_classes)."""

    kind: str
    kernel_defect: tuple   # |Theta_c Z_c| / |Theta_c S_c^-1/2| per class
    form_min: tuple        # lambda_min / max|lambda| of sym(Theta_c^T Aoe_c)
    form_range: tuple = ()  # (lambda_min, max|lambda|) of that form per class

    @property
    def wall_form_min(self) -> float:
        """lambda_min / max|lambda| of the whole wall form
        sym(Theta_kind^T Aoe): its blocks between classes are zero, so its
        eigenvalues are the classes' (0 where the form vanishes)."""
        low = min((lo for lo, _ in self.form_range), default=0.0)
        scale = max((top for _, top in self.form_range), default=0.0)
        return low / scale if scale > 0 else 0.0

    @property
    def class_stable(self) -> tuple:
        return tuple(defect < _KERNEL_TOL and form >= -_PSD_TOL
                     for defect, form in zip(self.kernel_defect, self.form_min))

    @property
    def verdict(self) -> str:
        return "stable" if all(self.class_stable) else "unstable"

    @property
    def stable(self) -> bool:
        return self.verdict == "stable"


def wall_certificate(sys: MomentSystem, kind: str) -> WallCertificate:
    """Admissibility of every wall B = [I | -sign 2 beta Theta_kind] of one
    kind, whatever the accommodation coefficient, from the held gain.

    The standing modes of the normal flux are (0, z) with Aoe z = 0, so
    B annihilates them iff Theta_kind z = 0, and on the rows' kernel the
    wall's energy flux is 2 beta u_e^T Theta_kind^T Aoe u_e: neither
    condition depends on beta > 0, and the sign conjugates both alike.
    The symmetrizer, Aoe and both gains keep the tangential parities, so
    each class c is judged on its own blocks Theta_c and Aoe_c, in
    S-orthonormal variables: Z_c is an S-orthonormal basis of the null
    space of Aoe_c, cut where the characteristic decomposition cuts its
    standing modes.  The kernel defect is |Theta_c Z_c| / |Theta_c
    S_c^-1/2| in Frobenius norms: the share of the gain, in S-orthonormal
    variables, that acts on standing modes, whatever basis Z_c the SVD
    picks (0 where Theta_c vanishes).  The wall form's reading is
    lambda_min / max|lambda| of sym(Theta_c^T Aoe_c) (0 where the form
    vanishes); both eigenvalues are kept, and the whole form's reading
    follows from them (WallCertificate.wall_form_min).  A class passes
    when its defect is below _KERNEL_TOL and its form above -_PSD_TOL.
    Raises if a standing mode has an odd part, since rows [I | -theta]
    cannot annihilate it.
    """
    theta = _held_gain(sys, kind)[0]
    dec = sys.characteristic
    n_o = sys.n_o
    Aoe = sys.flux_odd_even
    # S^-1/2 keeps the parities apart too: in S-orthonormal variables the
    # flux block's singular values are the characteristic speeds
    half_e = dec.S_half_inv[n_o:, n_o:]
    C = dec.S_half_inv[:n_o, :n_o] @ Aoe @ half_e
    T = theta @ half_e
    cut = _ZERO_TOL * max(dec.max_speed, 1.0)
    defects, forms, ranges = [], [], []
    for idx in sys.basis.parity_classes:
        block = np.ix_(idx[idx < n_o], idx[idx >= n_o] - n_o)
        _, speeds, Vt = np.linalg.svd(C[block])
        rank = int(np.count_nonzero(speeds > cut))
        if rank < len(block[0]):
            raise ValueError(f"{len(block[0]) - rank} standing modes with an odd "
                             f"part: no wall [I | -theta] annihilates them")
        T_c = T[block]
        scale = float(np.linalg.norm(T_c))
        defect = float(np.linalg.norm(T_c @ Vt[rank:].T))
        defects.append(defect / scale if scale > 0 else defect)
        F = theta[block].T @ Aoe[block]
        eigs = np.linalg.eigvalsh(0.5 * (F + F.T))
        scale = float(np.abs(eigs).max(initial=0.0))
        forms.append(float(eigs[0]) / scale if scale > 0 else 0.0)
        if eigs.size:
            ranges.append((float(eigs[0]), scale))
    return WallCertificate(kind=kind, kernel_defect=tuple(defects),
                           form_min=tuple(forms), form_range=tuple(ranges))
