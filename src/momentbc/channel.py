"""Heated-channel benchmark between parallel walls.

Steady heat conduction in a slab y in [-1/2, 1/2] driven by the quadratic
volumetric heating r(y) = a y^2 with isothermal walls.  In reference units
the steady balance forces zero normal velocity and a heat-flux difference
across the channel equal to the integrated heating a/12.  Two steady
solvers share the diagnostics.  solve_modal solves the linear system
exactly, as exponential and polynomial modes of the moment system plus a
polynomial particular part, and samples the result on the grid; the
converged-family reference (reference_solution) averages it.
solve_steady collocates the system on a uniform grid with
characteristic-biased third-order stencils, boundary rows replacing the
odd-moment equations at the walls and third-order one-sided even rows
there; its error against solve_modal falls as h^3.  The time marcher
integrates the same system with second-order upwind characteristic
splitting and a three-stage strong stability preserving scheme.  Both
grid operators are terms of a node stencil, given as a weight table, times
an m x m moment block, and both are block-Toeplitz: nodes 2..N-3 share one
block row, and only the rows of nodes 0, 1, N-2 and N-1 differ.  Those
five block rows are summed straight from the tables.  The steady solve
lays them out as a sparse matrix for the factorization; the marcher
applies the shared row as one GEMM with a strided window of the state,
plus the four wall-side rows.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .basis import BasisSet
from .boundary import WallData, make_boundary_operator
from .system import (MomentSystem, MomentTheory, assemble_system,
                     characteristic_decomposition, grad_theory)

SOURCE_AMPLITUDE = math.sqrt(2.0 / 3.0)
WALL_TEMP_COEFF = -math.sqrt(3.0 / 2.0)

# moment-to-field conversion factors in reference units
_FIELD_DEFS = (
    ("rho", (0, 0, ()), 1.0),
    ("v_y", (1, 0, ("y",)), 1.0),
    ("theta", (0, 1, ()), -math.sqrt(2.0 / 3.0)),
    ("sigma_yy", (2, 0, ("y", "y")), math.sqrt(2.0)),
    ("q_y", (1, 1, ("y",)), -math.sqrt(5.0 / 2.0)),
)


@dataclass(frozen=True)
class ChannelConfig:
    """Parameters of one channel run."""

    theory: MomentTheory
    kn: float = 0.3
    chi: float = 1.0
    bc_kind: str = "obc"
    n_grid: int = 512
    wall_temp: float = WALL_TEMP_COEFF
    source_amplitude: float = SOURCE_AMPLITUDE

    def __post_init__(self):
        if not 0 < self.kn < math.inf:
            raise ValueError("Knudsen number must be finite and positive")
        if self.n_grid < 16:
            raise ValueError("need at least 16 grid nodes")
        if self.bc_kind not in ("mbc", "obc"):
            raise ValueError("bc_kind must be 'mbc' or 'obc'")

    def grid(self) -> np.ndarray:
        return np.linspace(-0.5, 0.5, self.n_grid)

    def wall_data(self) -> WallData:
        return WallData(temp=self.wall_temp, velocity={}, chi=self.chi)


def source_vector(bs: BasisSet, amplitude: float, y) -> np.ndarray:
    """Moment projection of the heating at position y (scalar or array).

    The heating enters the temperature moment only, with coefficient
    -sqrt(2/3) r(y) and r(y) = amplitude * y^2.
    """
    i_temp = bs.index_of(0, 1, ())
    y = np.asarray(y, dtype=float)
    coeff = -math.sqrt(2.0 / 3.0) * amplitude * y ** 2
    if y.ndim == 0:
        out = np.zeros(bs.size)
        out[i_temp] = coeff
        return out
    out = np.zeros((y.size, bs.size))
    out[:, i_temp] = coeff
    return out


def extract_fields(bs: BasisSet, alpha: np.ndarray) -> dict:
    """Physical field profiles from the moment state (N x m).

    Fields whose moment is absent from the theory (heat flux below 20
    moments) are omitted.
    """
    fields = {}
    for name, key, factor in _FIELD_DEFS:
        try:
            idx = bs.index_of(*key)
        except KeyError:
            continue
        fields[name] = factor * alpha[:, idx]
    return fields


@dataclass(frozen=True)
class ChannelSolution:
    config: ChannelConfig
    y: np.ndarray
    alpha: np.ndarray          # (N, m); None for averaged reference fields
    fields: dict
    diagnostics: dict = field(default_factory=dict)


def _symmetry_error(fields: dict) -> float:
    """Deviation from the even/odd reflection symmetry of the solution."""
    worst = 0.0
    odd = {"v_y", "q_y"}
    for name, prof in fields.items():
        sign = -1.0 if name in odd else 1.0
        worst = max(worst, float(np.abs(prof - sign * prof[::-1]).max()))
    return worst


# Node stencils as weight tables: each entry (nodes, denominator,
# {offset: numerator}) puts numerator / (denominator * h) at column
# node + offset of every selected row.  Derivative stencils:
_UPWIND3 = ((slice(2, -1), 6, {-2: 1, -1: -6, 0: 3, 1: 2}),
            (slice(1, 2), 2, {-1: -1, 1: 1}))
_DOWNWIND3 = ((slice(1, -2), 6, {-1: -2, 0: -3, 1: 6, 2: -1}),
              (slice(-2, -1), 2, {-1: -1, 1: 1}))
_WALL3 = ((slice(0, 1), 6, {0: -11, 1: 18, 2: -9, 3: 2}),
          (slice(-1, None), 6, {0: 11, -1: -18, -2: 9, -3: -2}))
_UPWIND2 = ((slice(2, -1), 2, {0: 3, -1: -4, -2: 1}),
            (slice(1, 2), 1, {0: 1, -1: -1}))
_DOWNWIND2 = ((slice(1, -2), 2, {0: -3, 1: 4, 2: -1}),
              (slice(-2, -1), 1, {0: -1, 1: 1}))
_WALL2 = ((slice(0, 1), 2, {0: -3, 1: 4, 2: -1}),
          (slice(-1, None), 2, {0: 3, -1: -4, -2: 1}))
# node selections (used with h = 1)
_INTERIOR = ((slice(1, -1), 1, {0: 1}),)
_WALLS = ((slice(0, 1), 1, {0: 1}), (slice(-1, None), 1, {0: 1}))


def _operator_terms(cfg, sys, bc_upper, bc_lower, dec):
    """(table, h, block) terms of the steady and of the march operator.

    Steady, K alpha = F: d/dy goes through characteristic-biased third-order
    stencils, central next to the walls; a pure central scheme leaves
    sawtooth modes of the non-relaxing moments undetermined.  At a wall the
    odd-moment rows are the boundary rows B alpha = rhs and the even-moment
    rows use one-sided third-order differences.

    March, d alpha/dt = M alpha + b: d/dy goes through second-order upwind
    characteristic splitting, first order next to the walls.  The wall even
    rows use one-sided second-order differences; the wall odd rows are
    slaved to them through the gain.
    """
    m, n_o = sys.size, sys.n_o
    y = cfg.grid()
    h = y[1] - y[0]
    A = sys.A["y"]
    P = sys.P_bgk / cfg.kn
    A_up, A_dn = dec.split_fluxes
    steady = [(_UPWIND3, h, A_up),
              (_DOWNWIND3, h, A_dn),
              (_INTERIOR, 1.0, P),
              (_WALL3, h, np.vstack([np.zeros((n_o, m)), A[n_o:]])),
              (_WALLS[:1], 1.0, np.vstack([bc_lower.B, P[n_o:]])),
              (_WALLS[1:], 1.0, np.vstack([bc_upper.B, P[n_o:]]))]
    march = [(_UPWIND2, h, -A_up), (_DOWNWIND2, h, -A_dn), (_INTERIOR, 1.0, -P)]
    for k, bc in enumerate((bc_lower, bc_upper)):
        slave = np.vstack([bc.gain(), np.eye(m - n_o)])
        march += [(_WALL2[k:k + 1], h, -slave @ A[n_o:]),
                  (_WALLS[k:k + 1], 1.0, -slave @ P[n_o:])]
    return steady, march


def _window_start(node, N):
    """First of the five column nodes that block row `node` spans."""
    return np.clip(node - 2, 0, N - 5)


def _block_rows(terms, m: int) -> np.ndarray:
    """Block rows of sum_t table_t (x) B_t over (table, h, B) terms.

    Every table treats nodes 2..N-3 alike, with stencils over node offsets
    -2..+2, and keeps the rows of nodes 0, 1, N-2 and N-1 within the four
    nodes nearest their wall.  So block row i has five m x m blocks, over
    the column nodes from _window_start(i, N), and the rows of those four
    nodes and one interior node fix the operator; on a 7-node grid they are
    nodes 0, 1, 3, 5 and 6.  Returns them as a (5, 5, m, m) array, each
    block summed num / (den * h) * B in term order.
    """
    rows = np.zeros((5, 5, m, m))
    for table, h, B in terms:
        for nodes, den, taps in table:
            for r, node in enumerate((0, 1, 3, 5, 6)):
                if node in range(7)[nodes]:
                    start = _window_start(node, 7)
                    for offset, num in taps.items():
                        rows[r, node + offset - start] += num / (den * h) * B
    return rows


def _steady_operator(cfg, sys, bc_upper, bc_lower, dec) -> sp.csr_matrix:
    """Steady operator K as CSR, laid out from its block rows.

    Block row i holds five dense BSR blocks, nodes 2..N-3 repeating the
    interior row; exact zeros, within a block or where terms cancel, are
    not stored.
    """
    N, m = cfg.n_grid, sys.size
    rows = _block_rows(_operator_terms(cfg, sys, bc_upper, bc_lower, dec)[0], m)
    which = np.r_[0, 1, np.full(N - 4, 2), 3, 4]
    start = _window_start(np.arange(N), N)
    K = sp.bsr_matrix((rows[which].reshape(5 * N, m, m),
                       (start[:, None] + np.arange(5)).ravel(),
                       5 * np.arange(N + 1)), shape=(N * m, N * m)).tocsr()
    K.eliminate_zeros()
    return K


def _steady_diagnostics(cfg, fields, residual, operator_s, solve_s) -> dict:
    """Health numbers shared by the steady solvers' reports."""
    diagnostics = {
        "residual": residual,
        "max_v_y": float(np.abs(fields["v_y"]).max()),
        "flux_balance_target": cfg.source_amplitude / 12.0,
        "symmetry_error": _symmetry_error(fields),
        "timings": {"operator_s": operator_s, "solve_s": solve_s},
    }
    if "q_y" in fields:
        diagnostics["flux_balance"] = float(fields["q_y"][-1] - fields["q_y"][0])
    return diagnostics


def solve_steady(cfg: ChannelConfig, sys: MomentSystem = None) -> ChannelSolution:
    """Steady channel solve on cfg.n_grid collocation nodes.

    Interior rows use characteristic-biased third-order stencils; at the
    walls the odd-moment rows are the boundary conditions and the
    even-moment rows one-sided third-order differences (_steady_operator).
    The density column only enters through its derivative, so the
    plain system is singular up to a uniform density shift; a
    zero-total-density gauge closes it through a bordered augmentation.
    diagnostics["timings"] holds operator_s (operator and border) and
    solve_s (the sparse solve).
    """
    if sys is None:
        sys = assemble_system(cfg.theory, normal_axis="y", axes=("y",))
    bc_upper = make_boundary_operator(sys, cfg.bc_kind, cfg.chi, sign=+1)
    bc_lower = make_boundary_operator(sys, cfg.bc_kind, cfg.chi, sign=-1)

    m = sys.size
    n_o = sys.n_o
    N = cfg.n_grid
    y = cfg.grid()
    bs = sys.basis
    wall = cfg.wall_data()
    size = N * m
    top = (N - 1) * m

    rhs = np.zeros(size + 1)
    F = source_vector(bs, cfg.source_amplitude, y)
    rhs[:size] = F.ravel()
    rhs[0:n_o] = bc_lower.rhs(wall)
    rhs[top:top + n_o] = bc_upper.rhs(wall)

    # zero-total-density gauge via a bordered system
    start = time.perf_counter()
    rho_slots = np.arange(N) * m + bs.index_of(0, 0, ())
    gauge = sp.csr_matrix((np.ones(N), (np.zeros(N, dtype=int), rho_slots)),
                          shape=(1, size))
    K = sp.bmat([[_steady_operator(cfg, sys, bc_upper, bc_lower,
                                   characteristic_decomposition(sys)),
                  gauge.T.tocsr()],
                 [gauge, sp.csr_matrix((1, 1))]], format="csr")
    operator_s = time.perf_counter() - start
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", spla.MatrixRankWarning)
        x = spla.spsolve(K, rhs)
    solve_s = time.perf_counter() - start - operator_s
    residual = float(np.abs((K @ x - rhs)[:size]).max())
    scale = max(float(np.abs(rhs).max()), 1e-30)
    if not np.all(np.isfinite(x)) or residual > 1e-8 * scale:
        raise RuntimeError(
            f"steady solve residual {residual:.3e} exceeds tolerance; the "
            "theory lacks a moment needed to balance the heating (fewer than "
            "20 moments) or boundary rows are deficient")

    alpha = x[:size].reshape(N, m)
    fields = extract_fields(bs, alpha)
    diagnostics = _steady_diagnostics(cfg, fields, residual, operator_s, solve_s)
    diagnostics["gauge_multiplier"] = float(x[size])
    return ChannelSolution(config=cfg, y=y, alpha=alpha, fields=fields,
                           diagnostics=diagnostics)


# eigenvalues of the mode pencil below this fraction of the largest are zero
_ZERO_KAPPA = 1e-6


def _phi(z: np.ndarray, k: int) -> np.ndarray:
    """phi_k(z) = sum_i z^i / (i + k)!, for z <= 0.

    Summed as a series below |z| = 1, and above it by the recurrence
    phi_{j+1}(z) = (phi_j(z) - 1/j!) / z from phi_0(z) = e^z.
    """
    small = np.abs(z) < 1.0
    series = np.zeros(int(small.sum()))
    for i in range(19, -1, -1):
        series = series * z[small] + 1.0 / math.factorial(i + k)
    large = z[~small]
    rec = np.exp(large)
    for j in range(k):
        rec = (rec - 1.0 / math.factorial(j)) / large
    out = np.empty_like(z)
    out[small], out[~small] = series, rec
    return out


def solve_modal(cfg: ChannelConfig, sys: MomentSystem = None) -> ChannelSolution:
    """Exact steady solution of A alpha' + (P/Kn) alpha = F(y) on cfg.grid().

    The homogeneous solutions are 2 n_o modes: exponentials
    v exp(kappa (y - y_w) / Kn) from the finite nonzero eigenvalues of the
    pencil (P, -A), each anchored at the wall y_w it decays from, and the
    n_0 polynomials that the pencil's n_0 zero eigenvalues stand for.  The
    mode count comes from the pencil alone, independent of Kn.

    Through the left eigenvectors the heating F(y) = F_1 y^2 splits into
    A V g y^2, along the exponential modes V, and a rest.  Along mode k
    the coordinate of alpha obeys x' = (kappa_k / Kn) x + g_k y^2; its
    solution zero at the anchor wall is summed in phi-functions (_phi),
    where a polynomial one would grow as Kn^3 and cancel against the
    modes.  The rest has a polynomial particular solution of degree at
    most J = n_0 + 2, as have the n_0 polynomial modes.  Coefficients c_j
    in a coordinate y/l solve the block-bidiagonal rows
    (j+1) A c_{j+1} + (l/Kn) P c_j = rest_j.  The polynomial modes are
    the right singular vectors of the n_0 smallest singular values of
    those rows for l = max(Kn, 1/2), with no threshold: there the rows
    keep their Kn = 1/2 conditioning however large Kn is, and the powers
    stay within [-1, 1] however small.  The particular part solves the
    rows for l = 1/2 in the least squares sense over all but their n_0
    smallest singular values (the same SVD when Kn <= 1/2), so its
    coefficients stay of the order of the heating; in y/Kn they would
    grow as Kn^3 and cancel against the polynomial modes, leaving
    round-off that grows as Kn^2.  Both are sampled in 2 y.  The
    2 n_o mode amplitudes solve the boundary rows at both walls plus the
    nodal gauge sum_i rho(y_i) = 0 of solve_steady in the least squares
    sense.

    Raises RuntimeError when the heating has no polynomial particular
    part (a theory of fewer than 20 moments lacks the moment to balance
    it), when the pencil has complex or too few modes, and when the
    pointwise residual of every node's equations and both walls' rows
    exceeds 1e-8 of the data.  diagnostics["timings"] holds operator_s
    (modes and particular part) and solve_s (amplitudes and sampling);
    amplitude_cond is the condition number of the amplitude rows and
    modes counts both kinds.
    """
    if sys is None:
        sys = assemble_system(cfg.theory, normal_axis="y", axes=("y",))
    bc_upper = make_boundary_operator(sys, cfg.bc_kind, cfg.chi, sign=+1)
    bc_lower = make_boundary_operator(sys, cfg.bc_kind, cfg.chi, sign=-1)
    m, n_o, kn = sys.size, sys.n_o, cfg.kn
    A, P, bs = sys.A["y"], sys.P_bgk, sys.basis

    start = time.perf_counter()
    kappa, W, V = sla.eig(P, -A, left=True)
    finite = np.isfinite(kappa)
    moving = finite & (np.abs(kappa) > _ZERO_KAPPA * np.abs(kappa[finite]).max())
    n_poly = int(finite.sum() - moving.sum())
    kappa, W, V = kappa[moving], W[:, moving], V[:, moving]
    # eig returns unit eigenvectors
    if (np.any(np.abs(kappa.imag) > 1e-10 * np.abs(kappa))
            or np.abs(np.c_[W, V].imag).max(initial=0.0) > 1e-10):
        raise RuntimeError("modal solve found complex modes of the pencil; "
                           "it takes real exponential modes only")
    kappa, W, V = kappa.real, W.real, V.real
    if n_poly + kappa.size != 2 * n_o:
        raise RuntimeError(f"modal solve found {n_poly} polynomial and "
                           f"{kappa.size} exponential modes, not 2 n_o = {2 * n_o}")
    heat = source_vector(bs, cfg.source_amplitude, 1.0)
    g = np.linalg.solve(W.T @ A @ V, W.T @ heat)
    J, ell = n_poly + 2, max(kn, 0.5)

    def rows(l):
        """Polynomial rows (j+1) A c_{j+1} + (l/Kn) P c_j in y/l."""
        return (np.kron(np.eye(J + 1), l / kn * P)
                + np.kron(np.diag(np.arange(1.0, J + 1), 1), A))

    U, s, Vh = sla.svd(rows(ell))
    r = s.size - n_poly
    # from coefficients in y/l to coefficients in 2 y
    c_modes = (Vh[r:].reshape(n_poly, J + 1, m)
               * ((0.5 / ell) ** np.arange(J + 1))[:, None])
    rest = np.zeros((J + 1) * m)
    rest[2 * m:3 * m] = (heat - A @ V @ g) / 8.0
    if ell != 0.5:
        U, s, Vh = sla.svd(rows(0.5))
    c_part = Vh[:r].T @ ((U[:, :r].T @ rest) / s[:r])
    # the rows have a solution only if the rest misses their left null space
    if np.linalg.norm(U[:, r:].T @ rest) > 1e-8 * np.linalg.norm(rest):
        raise RuntimeError(
            "modal solve found no polynomial particular part for the heating; "
            "the theory lacks a moment needed to balance it (fewer than 20 moments)")
    c_part = c_part.reshape(J + 1, m)
    operator_s = time.perf_counter() - start

    y = cfg.grid()
    powers = (2.0 * y)[:, None] ** np.arange(J + 1)
    y_wall = np.where(kappa > 0, y[-1], y[0])
    h = y[:, None] - y_wall
    z = kappa / kn * h
    x_part = g * h * (y_wall ** 2 * _phi(z, 1) + 2 * y_wall * h * _phi(z, 2)
                      + 2 * h ** 2 * _phi(z, 3))
    decay = np.exp(z)

    def values(p, e):
        """(n, m, 2 n_o) mode values from n rows of powers and decays."""
        return np.concatenate([np.einsum("nj,kjm->nmk", p, c_modes),
                               e[:, None, :] * V], axis=2)

    ends = values(powers[[0, -1]], decay[[0, -1]])
    mean = values(powers.mean(axis=0, keepdims=True), decay.mean(axis=0, keepdims=True))
    part = powers @ c_part + x_part @ V.T
    i_rho = bs.index_of(0, 0, ())
    wall = cfg.wall_data()
    r_lower, r_upper = bc_lower.rhs(wall), bc_upper.rhs(wall)
    amp, _, _, sv = sla.lstsq(
        np.vstack([bc_lower.B @ ends[0], bc_upper.B @ ends[1], mean[:, i_rho]]),
        np.r_[r_lower - bc_lower.B @ part[0], r_upper - bc_upper.B @ part[-1],
              -part[:, i_rho].mean()])
    c = c_part + np.tensordot(amp[:n_poly], c_modes, 1)
    x = x_part + decay * amp[n_poly:]
    alpha = powers @ c + x @ V.T
    # d alpha / dy, for the residual of every node's equations
    slope = (2.0 * powers[:, :-1] @ (np.arange(1.0, J + 1)[:, None] * c[1:])
             + (kappa / kn * x + g * y[:, None] ** 2) @ V.T)
    F = source_vector(bs, cfg.source_amplitude, y)
    residual = float(max(np.abs(slope @ A.T + alpha @ P.T / kn - F).max(),
                         np.abs(bc_lower.B @ alpha[0] - r_lower).max(),
                         np.abs(bc_upper.B @ alpha[-1] - r_upper).max()))
    solve_s = time.perf_counter() - start - operator_s
    scale = max(float(np.abs(np.r_[F.ravel(), r_lower, r_upper]).max()), 1e-30)
    amplitude_cond = float(sv[0] / sv[-1])
    if not np.all(np.isfinite(alpha)) or residual > 1e-8 * scale:
        raise RuntimeError(
            f"modal solve residual {residual:.3e} exceeds tolerance: round-off "
            f"in the modes or amplitudes (amplitude condition {amplitude_cond:.1e})")

    fields = extract_fields(bs, alpha)
    diagnostics = _steady_diagnostics(cfg, fields, residual, operator_s, solve_s)
    diagnostics["amplitude_cond"] = amplitude_cond
    diagnostics["modes"] = {"polynomial": n_poly, "exponential": int(kappa.size)}
    return ChannelSolution(config=cfg, y=y, alpha=alpha, fields=fields,
                           diagnostics=diagnostics)


REFERENCE_DEGREES = (5, 6, 7)


def reference_solution(cfg: ChannelConfig, theories=None) -> ChannelSolution:
    """Mean of the converged-family solutions on the same grid.

    Each theory is solved exactly by solve_modal and sampled on
    cfg.grid(), so the reference carries no discretization error.  By
    default averages the three largest full-degree theories of the
    supported family (56, 84 and 120 moments in 3D counting).
    """
    if theories is None:
        theories = tuple(grad_theory(d, cfg.theory.reduction)
                         for d in REFERENCE_DEGREES)
    sols = [solve_modal(replace(cfg, theory=th)) for th in theories]
    fields = {}
    for name in sols[0].fields:
        fields[name] = np.mean([s.fields[name] for s in sols], axis=0)
    diagnostics = {
        "theories": [th.name for th in theories],
        "component_diagnostics": [s.diagnostics for s in sols],
    }
    return ChannelSolution(config=cfg, y=sols[0].y, alpha=None,
                           fields=fields, diagnostics=diagnostics)


@dataclass(frozen=True)
class MarchResult:
    config: ChannelConfig
    y: np.ndarray
    times: np.ndarray
    energy: np.ndarray
    alpha: np.ndarray
    fields: dict
    dt: float
    blowup: bool
    march_s: float             # wall time of the step loop

    @property
    def max_energy_growth(self) -> float:
        """Largest rise of the energy trace above its running minimum."""
        running = np.minimum.accumulate(self.energy)
        return float((self.energy - running).max())


def _march_operator(cfg, sys, bc_upper, bc_lower, dec):
    """March operator M and source b, in block-row form: (W, edges, b).

    W is the (5m, m) transpose of the block row that nodes 2..N-3 share
    over node offsets -2..+2.  edges holds (node, lo, hi, E) for nodes 0,
    1, N-2 and N-1: E is the node's block row over column nodes lo..hi-1,
    the span of its nonzero blocks.
    """
    m, n_o, N = sys.size, sys.n_o, cfg.n_grid
    rows = _block_rows(_operator_terms(cfg, sys, bc_upper, bc_lower, dec)[1], m)
    W = np.concatenate(rows[2], axis=1).T.copy()
    edges = []
    for r, node in zip((0, 1, 3, 4), (0, 1, N - 2, N - 1)):
        used = np.flatnonzero(rows[r].any(axis=(1, 2)))
        lo, hi = used[0], used[-1] + 1
        start = _window_start(node, N)
        edges.append((node, start + lo, start + hi,
                      np.concatenate(rows[r, lo:hi], axis=1)))

    F = source_vector(sys.basis, cfg.source_amplitude, cfg.grid())
    b = F.ravel().copy()
    for node, bc in ((0, bc_lower), (N - 1, bc_upper)):
        b[node * m:node * m + n_o] = bc.gain() @ F[node, n_o:]
    return W, edges, b


def _block_toeplitz_apply(W, edges, N: int):
    """u -> M u from the block-row form of _march_operator.

    Node rows 2..N-3 are one GEMM of W with the zero-copy (N-4, 5m) window
    of the state whose row k holds nodes k..k+4; each edge row is one dot
    with the state over its column span.  Returns apply(u, out), which
    writes M u into out.
    """
    m = W.shape[1]

    def apply(u, out):
        window = np.ndarray((N - 4, 5 * m), buffer=u,
                            strides=(m * u.itemsize, u.itemsize))
        O = out.reshape(N, m)
        np.matmul(window, W, out=O[2:N - 2])
        for node, lo, hi, E in edges:
            np.dot(E, u[lo * m:hi * m], out=O[node])
        return out

    return apply


def _apply_wall_state(alpha, bc_upper, bc_lower, wall, n_o):
    """Overwrite the wall-node odd moments with the boundary relation."""
    alpha[0, :n_o] = bc_lower.gain() @ alpha[0, n_o:] + bc_lower.rhs(wall)
    alpha[-1, :n_o] = bc_upper.gain() @ alpha[-1, n_o:] + bc_upper.rhs(wall)
    return alpha


# the march stops as blown up once the energy exceeds this multiple of its scale
_BLOWUP_FACTOR = 1e6


def time_march_energy(cfg: ChannelConfig, t_final: float = 10.0,
                      cfl: float = 0.4, init="zero", seed: int = 0,
                      sys: MomentSystem = None, record_every: int = 1) -> MarchResult:
    """Explicit march of the channel system recording the entropy energy.

    init is 'zero', 'random' (seeded nodal noise) or an (N, m) array; wall
    odd moments are made consistent with the boundary relation before the
    march.  The energy is E(t) = dy * sum_nodes alpha^T S alpha, computed
    as one (N, m) x (m, m) product and a dot.  Each SSP-RK3 stage applies
    the block rows of _march_operator through _block_toeplitz_apply, in
    buffers allocated once per march; march_s on the result is the wall
    time of the step loop.  cfl and t_final must be finite and positive.
    """
    if not (0 < cfl < math.inf and 0 < t_final < math.inf):
        raise ValueError(f"cfl and t_final must be finite and positive "
                         f"(got cfl={cfl}, t_final={t_final})")
    if sys is None:
        sys = assemble_system(cfg.theory, normal_axis="y", axes=("y",))
    bc_upper = make_boundary_operator(sys, cfg.bc_kind, cfg.chi, sign=+1)
    bc_lower = make_boundary_operator(sys, cfg.bc_kind, cfg.chi, sign=-1)
    dec = characteristic_decomposition(sys)
    W, edges, b = _march_operator(cfg, sys, bc_upper, bc_lower, dec)

    m = sys.size
    N = cfg.n_grid
    y = cfg.grid()
    h = y[1] - y[0]
    wall = cfg.wall_data()
    if isinstance(init, str):
        if init == "zero":
            alpha = np.zeros((N, m))
        elif init == "random":
            alpha = np.random.default_rng(seed).standard_normal((N, m))
        else:
            raise ValueError(f"unknown initializer {init!r}")
    else:
        alpha = np.array(init, dtype=float).reshape(N, m)
    alpha = _apply_wall_state(alpha, bc_upper, bc_lower, wall, sys.n_o)

    dt = cfl * h / max(dec.max_speed, 1e-12)
    dt = min(dt, 1.5 * cfg.kn)
    steps = max(1, int(math.ceil(t_final / dt)))
    dt = t_final / steps

    S = sys.S
    apply_M = _block_toeplitz_apply(W, edges, N)
    u = alpha.ravel()
    u1, u2, tmp = np.empty_like(u), np.empty_like(u), np.empty_like(u)
    aS = np.empty((N, m))

    def energy(u):
        a = u.reshape(N, m)
        return h * float(np.vdot(np.matmul(a, S, out=aS), a))

    def stage(v, out):
        """out = v + dt (M v + b)"""
        apply_M(v, out)
        out += b
        out *= dt
        out += v
        return out

    times = [0.0]
    energies = [energy(u)]
    e_scale = max(energies[0], float(np.abs(b).max()) ** 2, 1.0)
    blowup = False
    start = time.perf_counter()
    for k in range(steps):
        stage(u, u1)
        stage(u1, u2)
        u2 *= 0.25
        u2 += np.multiply(u, 0.75, out=tmp)
        stage(u2, u1)
        u1 *= 2.0 / 3.0
        u /= 3.0
        u += u1
        if (k + 1) % record_every == 0 or k == steps - 1:
            e = energy(u)
            times.append((k + 1) * dt)
            energies.append(e)
            if not np.isfinite(e) or e > _BLOWUP_FACTOR * e_scale:
                blowup = True
                break
    march_s = time.perf_counter() - start

    alpha = u.reshape(N, m)
    return MarchResult(config=cfg, y=y, times=np.array(times),
                       energy=np.array(energies), alpha=alpha,
                       fields=extract_fields(sys.basis, alpha), dt=dt,
                       blowup=blowup, march_s=march_s)
