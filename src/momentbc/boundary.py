"""Wall boundary operators for moment systems.

Both wall kinds have rows B = [I | -theta] with one gain formula,
theta = sign 2 beta Theta_kind, where beta is the accommodation gain, sign
the wall's orientation and Theta_kind a chi-free gain the system holds
once.  The accommodation (Maxwell) gain follows from continuity of odd
fluxes between the gas distribution and a diffusely reflecting wall
Maxwellian, with the wall density eliminated through the no-penetration
condition.  The Onsager gain replaces it by a symmetric positive
semi-definite response acting on the odd-even flux block, which restores a
provable energy balance while agreeing with accommodation on the lowest
moments.  A wall's temperature is its only datum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import _gram
from .system import MomentSystem


def accommodation_gain(chi: float) -> float:
    """beta = chi / (2 - chi); one half at full accommodation."""
    if not 0.0 < chi <= 1.0:
        raise ValueError("accommodation coefficient must lie in (0, 1]")
    return chi / (2.0 - chi)


def assemble_mbc(sys: MomentSystem):
    """Raw accommodation gain for the wall with outward normal +axis.

    Returns (M_mbc, g): the even-to-odd gain matrix after eliminating the
    wall density, and its column that multiplies the wall temperature.
    """
    bs = sys.basis
    n_o = bs.n_o
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
    return M, M[:, bs.index_of(0, 1) - n_o].copy()


# relative tolerance for a negative eigenvalue of the Onsager response
_PSD_TOL = 1e-9


def assemble_obc(sys: MomentSystem):
    """Onsager gain Theta_obc = sym(K) Aoe, with K = Mhat inv(Aoe_hat), Mhat
    the odd columns of the system's M_mbc and Aoe its odd-even flux block,
    so that a wall's response is L = 2 beta sym(K).

    Returns (Theta_obc, diagnostics), both chi-free: the diagnostics are
    those of L per unit 2 beta.  Raises if Aoe_hat is near singular, or if
    L fails to be symmetric positive semi-definite within tolerance, since
    the energy estimate rests on it; the check reads L at full
    accommodation, 2 sym(K), the strictest of every chi's.
    """
    n_o = sys.n_o
    Aoe = sys.flux_odd_even
    Ahat = Aoe[:, :n_o]
    # fewer even moments than odd ones leave Aoe_hat without a full column set
    cond = float(np.linalg.cond(Ahat)) if sys.n_e >= n_o else np.inf
    if not np.isfinite(cond) or cond > 1e12:
        raise ValueError(f"odd-even flux head block near singular (cond {cond:.3e})")
    L_raw = 2.0 * (sys.mbc[0][:, :n_o] @ np.linalg.inv(Ahat))
    asym = float(np.abs(L_raw - L_raw.T).max())
    if asym > 1e-9 * max(float(np.abs(L_raw).max()), 1.0):
        raise ValueError(f"Onsager response not symmetric (deviation {asym:.3e})")
    L = 0.5 * (L_raw + L_raw.T)
    eigs = np.linalg.eigvalsh(L)
    if eigs.min() < -_PSD_TOL * max(eigs.max(), 1.0):
        raise ValueError(f"Onsager response has negative eigenvalue {eigs.min():.3e}")
    diag = {"asymmetry": 0.5 * asym, "cond_Aoe_hat": cond,
            "min_eig_L": 0.5 * float(eigs.min()), "max_eig_L": 0.5 * float(eigs.max())}
    return (0.5 * L) @ Aoe, diag


def _held_gain(sys: MomentSystem, kind: str):
    """(Theta_kind, its chi-free diagnostics) as the system holds them;
    the Onsager gain is built on its first use."""
    if kind not in ("mbc", "obc"):
        raise ValueError("kind must be 'mbc' or 'obc'")
    return (sys.mbc[0], {}) if kind == "mbc" else sys.obc


@dataclass(frozen=True)
class BoundaryOperator:
    """Boundary rows B alpha = rhs(wall_temp) for one wall.

    kind is 'mbc' or 'obc'.  g is the system's wall-temperature column in
    the frame of the wall's outward normal, so rhs = -2 beta wall_temp g at
    either orientation.
    """

    kind: str
    beta: float
    n_o: int
    B: np.ndarray
    g: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def gain(self) -> np.ndarray:
        """Even-to-odd map Theta with alpha_o = Theta alpha_e + rhs."""
        return -self.B[:, self.n_o:]

    def rhs(self, wall_temp: float) -> np.ndarray:
        """The rows' right side for a wall Maxwellian whose temperature
        basis coefficient is wall_temp (a wall temperature deviation of
        -sqrt(2/3) wall_temp in reference units)."""
        return 2.0 * self.beta * (-wall_temp * self.g)


def make_boundary_operator(sys: MomentSystem, kind: str = "obc",
                           chi: float = 1.0, sign: int = +1) -> BoundaryOperator:
    """Assemble the full boundary row block for one wall, B = [I | -theta]
    with theta = sign 2 beta Theta_kind and Theta_kind held by the system
    (MomentSystem.mbc, MomentSystem.obc).

    The -1 orientation is the +1 operator conjugated by the parity
    reflection of the state, which flips the gain and the temperature
    column.  The Onsager diagnostics are the system's, scaled by 2 beta
    where they read the response.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    beta = accommodation_gain(chi)
    theta_kind, held = _held_gain(sys, kind)
    theta = sign * 2.0 * beta * theta_kind
    diagnostics = {key: value if key == "cond_Aoe_hat" else 2.0 * beta * value
                   for key, value in held.items()}
    B = np.hstack([np.eye(sys.n_o), -theta])
    return BoundaryOperator(kind=kind, beta=beta, n_o=sys.n_o, B=B,
                            g=sign * sys.mbc[1], diagnostics=diagnostics)
