"""Wall boundary operators for moment systems.

The accommodation (Maxwell) operator follows from continuity of odd fluxes
between the gas distribution and a diffusely reflecting wall Maxwellian,
with the wall density eliminated through the no-penetration condition.  The
Onsager variant replaces the even-moment gain by a symmetric positive
semi-definite response acting on the odd-even flux block, which restores a
provable energy balance while agreeing with accommodation on the lowest
moments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import _gram
from .system import MomentSystem


@dataclass(frozen=True)
class WallData:
    """Wall state in the local frame of the wall.

    temp is the coefficient multiplying the scalar temperature basis
    function in the wall Maxwellian (wall temperature deviation equals
    -sqrt(2/3) temp in reference units); velocity maps tangential axes to
    wall speed coefficients.
    """

    temp: float = 0.0
    velocity: dict = field(default_factory=dict)


def accommodation_gain(chi: float) -> float:
    """beta = chi / (2 - chi); one half at full accommodation."""
    if not 0.0 < chi <= 1.0:
        raise ValueError("accommodation coefficient must lie in (0, 1]")
    return chi / (2.0 - chi)


def _tangential_axes(normal_axis: str, reduction: str):
    axes = [a for a in ("x", "y") if a != normal_axis]
    if reduction == "full3d":
        axes.append("z")
    return axes


def assemble_mbc(sys: MomentSystem):
    """Raw accommodation operator for the wall with outward normal +axis.

    Returns (M_mbc, g_columns): the even-to-odd gain matrix after
    eliminating the wall density, and the columns of M_mbc that multiply
    the wall temperature and tangential velocities in the inhomogeneity.
    """
    bs = sys.basis
    n_o, n_e = bs.n_o, bs.n_e
    axis = bs.normal_axis
    odd = bs.entries[:n_o]
    if odd[0].rank != 1 or odd[0].radial != 0:
        raise ValueError("first odd moment must be the normal velocity")

    # half-space moments of the even reconstruction 2S polys against odd
    # tests, and of the wall Maxwellian's density column (the unit
    # polynomial); S keeps the parities apart, so its even block suffices
    unit = np.ones((1, 1, 1, 1))
    H = _gram(bs.polys[:n_o], bs.polys[n_o:], half=axis) @ (2.0 * sys.S[n_o:, n_o:])
    w0 = _gram(bs.polys[:n_o], unit, half=axis)[:, 0]
    if abs(w0[0]) < 1e-14:
        raise ValueError("degenerate no-penetration moment")
    # eliminate the wall density via the first (no-penetration) row
    M = H - np.outer(w0, H[0]) / w0[0]

    reduction = bs.theory.reduction
    even_index = {}
    for j in range(n_e):
        bf = bs.entries[n_o + j]
        even_index[(bf.rank, bf.radial, bf.component)] = j
    g_columns = {"temp": M[:, even_index[(0, 1, ())]].copy()}
    for ax in _tangential_axes(axis, reduction):
        g_columns[("velocity", ax)] = M[:, even_index[(1, 0, (ax,))]].copy()
    return M, g_columns


def wall_inhomogeneity(g_columns: dict, wall: WallData) -> np.ndarray:
    """Inhomogeneity g: minus the wall data paired with its gain columns."""
    g = -wall.temp * g_columns["temp"]
    for key, col in g_columns.items():
        if isinstance(key, tuple) and key[0] == "velocity":
            g = g - wall.velocity.get(key[1], 0.0) * col
    return g


@dataclass(frozen=True)
class BoundaryOperator:
    """Boundary rows B alpha = rhs(wall) for one wall.

    kind is 'mbc' or 'obc'.  g_columns are stored in the frame of the
    wall's outward normal, so rhs = 2 beta g at either orientation.
    """

    kind: str
    beta: float
    n_o: int
    n_e: int
    B: np.ndarray
    g_columns: dict
    diagnostics: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return self.n_o + self.n_e

    def gain(self) -> np.ndarray:
        """Even-to-odd map Theta with alpha_o = Theta alpha_e + rhs."""
        return -self.B[:, self.n_o:]

    def rhs(self, wall: WallData) -> np.ndarray:
        return 2.0 * self.beta * wall_inhomogeneity(self.g_columns, wall)


# relative tolerance for a negative eigenvalue of the Onsager response
_PSD_TOL = 1e-9


def _onsager_terms(sys: MomentSystem):
    """(Aoe, cond_Aoe_hat, M_mbc[:, :n_o] inv(Aoe_hat)), read-only; held
    by MomentSystem.onsager.  Raises if Aoe_hat is near singular."""
    n_o = sys.n_o
    Aoe = sys.flux_odd_even()
    Ahat = Aoe[:, :n_o]
    cond = float(np.linalg.cond(Ahat))
    if not np.isfinite(cond) or cond > 1e12:
        raise ValueError(f"odd-even flux head block near singular (cond {cond:.3e})")
    K = sys.mbc[0][:, :n_o] @ np.linalg.inv(Ahat)
    Aoe.flags.writeable = K.flags.writeable = False
    return Aoe, cond, K


def assemble_obc(sys: MomentSystem, chi: float = 1.0):
    """Onsager response L = 2 beta Mhat inv(Aoe_hat), symmetrized, with
    Mhat the odd columns of the system's M_mbc.

    Returns (L, diagnostics).  Raises if L fails to be symmetric positive
    semi-definite within tolerance, since the energy estimate rests on it.
    """
    beta = accommodation_gain(chi)
    _, cond, K = sys.onsager
    L_raw = 2.0 * beta * K
    asym = float(np.abs(L_raw - L_raw.T).max())
    scale = max(float(np.abs(L_raw).max()), 1.0)
    if asym > 1e-9 * scale:
        raise ValueError(f"Onsager response not symmetric (deviation {asym:.3e})")
    L = 0.5 * (L_raw + L_raw.T)
    eigs = np.linalg.eigvalsh(L)
    if eigs.min() < -_PSD_TOL * max(eigs.max(), 1.0):
        raise ValueError(f"Onsager response has negative eigenvalue {eigs.min():.3e}")
    diag = {"asymmetry": asym, "cond_Aoe_hat": cond,
            "min_eig_L": float(eigs.min()), "max_eig_L": float(eigs.max())}
    return L, diag


def make_boundary_operator(sys: MomentSystem, kind: str = "obc",
                           chi: float = 1.0, sign: int = +1) -> BoundaryOperator:
    """Assemble the full boundary row block for one wall.

    The -1 orientation is the +1 operator conjugated by the parity
    reflection of the state, which flips the even-to-odd gain and the
    inhomogeneity columns.  Both start from the system's M_mbc and g
    columns, assembled once per system (MomentSystem.mbc), and an Onsager
    wall from the system's MomentSystem.onsager.
    """
    if kind not in ("mbc", "obc"):
        raise ValueError("kind must be 'mbc' or 'obc'")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    beta = accommodation_gain(chi)
    M_plus, g_plus = sys.mbc
    g_columns = {k: sign * v for k, v in g_plus.items()}
    diagnostics = {}
    if kind == "mbc":
        theta = sign * 2.0 * beta * M_plus
    else:
        L, diagnostics = assemble_obc(sys, chi)
        theta = sign * (L @ sys.onsager[0])
    B = np.hstack([np.eye(sys.n_o), -theta])
    return BoundaryOperator(kind=kind, beta=beta, n_o=sys.n_o, n_e=sys.n_e, B=B,
                            g_columns=g_columns, diagnostics=diagnostics)
