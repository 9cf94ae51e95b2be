"""Heated-channel benchmark between parallel walls.

Steady heat conduction in a slab y in [-1/2, 1/2] driven by the quadratic
volumetric heating r(y) = a y^2 with isothermal walls.  In reference units
the steady balance forces zero normal velocity and a heat-flux difference
across the channel equal to the integrated heating a/12.  Two steady
solvers share the diagnostics.  solve_modal solves the linear system
exactly, as exponential and polynomial modes of the moment system plus a
polynomial particular part, and samples the result on the grid; the
exponential modes come from a symmetric m-sized eigenproblem, and the
polynomial ones and the particular part from the pencil's d x d block
left once the exponential modes are split off, d = m - n_exp, all in
numpy.  The converged-family reference (reference_solution) averages it.
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

import importlib
import math
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import BasisSet
from .boundary import WallData, make_boundary_operator
from .system import (MomentSystem, MomentTheory, assemble_system,
                     characteristic_decomposition, grad_theory)


class _OnFirstUse:
    """A module imported on its first attribute access.

    Only solve_steady needs scipy, so importing momentbc loads numpy alone.
    spla stays a module attribute, through which bench/tracer.py wraps
    spsolve.
    """

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        return getattr(importlib.import_module(self._name), attr)


sp = _OnFirstUse("scipy.sparse")
spla = _OnFirstUse("scipy.sparse.linalg")

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


# eigenvalues and singular values below this fraction of max|A^| count as
# zero in the reduction of the mode pencil
_RANK_TOL = 1e-8


def _pencil_modes(sys: MomentSystem):
    """Modes of the pencil (P, -A), P v = -kappa A v, by a symmetric reduction.

    S A is symmetric and P commutes with S, so in x = S^1/2 v the pencil
    reads A^ x = mu P x, with A^ = S^1/2 A S^-1/2 symmetric and
    mu = -1/kappa.  P is zero on the collision invariants c and the
    identity on the rest r.  The c rows give
    x_c = -A^_cc^+ A^_cr x_r + N_0 t, over the null space N_0 of A^_cc,
    provided C^T x_r = 0 with C = A^_rc N_0; the r rows then read
    G x_r + C t = mu x_r, with G = A^_rr - A^_rc A^_cc^+ A^_cr.  On
    x_r = Z y, Z = null(C^T), that is the symmetric eigenproblem
    Z^T G Z y = mu y, and C t = (mu - G) x_r fixes t.  Its nonzero mu are
    the exponential modes, real by construction; the n_c + rank C
    eigenvalues left out of the reduction are the zero kappa.

    Returns (n_poly, kappa, W, V): the count of zero kappa, and the
    nonzero kappa with right eigenvectors V (unit columns) and left
    eigenvectors W = S V.  Raises RuntimeError when C is rank deficient:
    then P and A share a null vector n, and no steady solution exists
    unless the heating is orthogonal to S n.  Below 20 moments (G10) it is
    not: n mixes density and temperature, which no heat flux carries.
    """
    dec = characteristic_decomposition(sys)
    A_hat = dec.S_half @ sys.A["y"] @ dec.S_half_inv
    A_hat = 0.5 * (A_hat + A_hat.T)
    tol = _RANK_TOL * np.abs(A_hat).max()
    c = np.diag(sys.P_bgk) == 0.0
    r = ~c
    lam, Q = np.linalg.eigh(A_hat[np.ix_(c, c)])
    null = np.abs(lam) <= tol
    N0, Q, lam = Q[:, null], Q[:, ~null], lam[~null]
    A_rc = A_hat[np.ix_(r, c)]
    pinv_cr = (Q / lam) @ (Q.T @ A_rc.T)
    U, s, Vh = np.linalg.svd(A_rc @ N0)
    rank = int((s > tol).sum())
    if rank < N0.shape[1]:
        raise RuntimeError(
            "modal solve found a singular mode pencil: the relaxation and the "
            "flux share a null vector, so the theory lacks a moment needed to "
            "balance the heating (fewer than 20 moments)")
    Z = U[:, rank:]
    G = A_hat[np.ix_(r, r)] - A_rc @ pinv_cr
    mu, Y = np.linalg.eigh(Z.T @ G @ Z)
    moving = np.abs(mu) > tol
    mu, x_r = mu[moving], Z @ Y[:, moving]
    t = Vh.T @ ((U[:, :rank].T @ (x_r * mu - G @ x_r)) / s[:, None])
    x = np.zeros((sys.size, mu.size))
    x[c], x[r] = N0 @ t - pinv_cr @ x_r, x_r
    V = dec.S_half_inv @ x
    V /= np.linalg.norm(V, axis=0)
    return int(c.sum()) + rank, -1.0 / mu, sys.S @ V, V


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


def _deflation(A, W, V):
    """Orthonormal bases Y and Z that split the exponential modes off.

    Z spans the complement of range(A V) and Y that of range(A^T W), each
    from one m-sized SVD.  P V = -A V diag(kappa) and
    W^T P = -diag(kappa) W^T A, so Z^T A V, Z^T P V, W^T A Y and W^T P Y
    vanish: in the bases [V Y] and [W Z] the pencil (A, P) is block
    diagonal.  Y and Z have m - n_exp columns each.
    """
    n = V.shape[1]
    return np.linalg.svd(A.T @ W)[0][:, n:], np.linalg.svd(A @ V)[0][:, n:]


def _polynomial_part(A, P, kn, n_poly, W, V, rest):
    """Polynomial modes and the particular part of the heating rest * y^2.

    Polynomial coefficients c_j in a coordinate y/l, up to degree
    J = n_poly + 2, solve the block-bidiagonal rows
    (j+1) A c_{j+1} + (l/Kn) P c_j = rest_j.  W^T rest = 0 and
    W^T P = -diag(kappa) W^T A with no kappa zero, so the W rows force the
    V part of every solution to zero, from the top degree down: every
    solution lies in span(Y) (_deflation).  The rows are solved as
    c_j = Y b_j through the d x d blocks Z^T A Y and Z^T P Y,
    d = m - n_exp.  The polynomial modes are the right singular vectors of
    the n_poly smallest singular values of those rows for l = max(Kn, 1/2),
    with no threshold: there the rows keep their Kn = 1/2 conditioning
    however large Kn is, and the powers stay within [-1, 1] however small.
    The particular part solves the rows for l = 1/2 in the least squares
    sense over all but their n_poly smallest singular values (the same SVD
    when Kn <= 1/2), so its coefficients stay of the order of the heating;
    in y/Kn they would grow as Kn^3 and cancel against the polynomial
    modes, leaving round-off that grows as Kn^2.  Y is orthonormal, so
    this is the minimum-norm particular part of the unreduced rows too.

    Returns (c_modes, c_part), (n_poly, J+1, m) and (J+1, m), as
    coefficients in 2 y.  Raises RuntimeError when round-off puts more than
    1e-8 of the rest along the rows' left null space.
    """
    Y, Z = _deflation(A, W, V)
    A_d, P_d = Z.T @ A @ Y, Z.T @ P @ Y
    d = Y.shape[1]
    J, ell = n_poly + 2, max(kn, 0.5)

    def rows(l):
        """Deflated rows (j+1) A_d b_{j+1} + (l/Kn) P_d b_j in y/l."""
        return (np.kron(np.eye(J + 1), l / kn * P_d)
                + np.kron(np.diag(np.arange(1.0, J + 1), 1), A_d))

    U, s, Vh = np.linalg.svd(rows(ell))
    r = s.size - n_poly
    # from coefficients in y/l to coefficients in 2 y
    c_modes = (Vh[r:].reshape(n_poly, J + 1, d)
               * ((0.5 / ell) ** np.arange(J + 1))[:, None]) @ Y.T
    rest_d = np.zeros((J + 1) * d)
    rest_d[2 * d:3 * d] = Z.T @ rest / 8.0
    if ell != 0.5:
        U, s, Vh = np.linalg.svd(rows(0.5))
    c_part = Vh[:r].T @ ((U[:, :r].T @ rest_d) / s[:r])
    # the rows have a solution only if the rest misses their left null space;
    # the pencil is regular here, so a miss is round-off, which grows with Kn
    miss = np.linalg.norm(U[:, r:].T @ rest_d) / (np.linalg.norm(rest) / 8.0)
    if miss > 1e-8:
        raise RuntimeError(
            f"modal solve found no polynomial particular part for the heating: "
            f"round-off at Kn = {kn:.3g} puts {miss:.1e} of it along the left "
            f"null space of the polynomial rows")
    return c_modes, c_part.reshape(J + 1, d) @ Y.T


def solve_modal(cfg: ChannelConfig, sys: MomentSystem = None) -> ChannelSolution:
    """Exact steady solution of A alpha' + (P/Kn) alpha = F(y) on cfg.grid().

    The homogeneous solutions are 2 n_o modes: exponentials
    v exp(kappa (y - y_w) / Kn) from the nonzero eigenvalues of the pencil
    (P, -A) (_pencil_modes), each anchored at the wall y_w it decays from,
    and the n_0 polynomials that the pencil's n_0 zero eigenvalues stand
    for.  The mode count comes from the pencil alone, independent of Kn.

    Through the left eigenvectors the heating F(y) = F_1 y^2 splits into
    A V g y^2, along the exponential modes V, and a rest.  Along mode k
    the coordinate of alpha obeys x' = (kappa_k / Kn) x + g_k y^2; its
    solution zero at the anchor wall is summed in phi-functions (_phi),
    where a polynomial one would grow as Kn^3 and cancel against the
    modes.  The rest has a polynomial particular solution of degree at
    most J = n_0 + 2, as have the n_0 polynomial modes.  Both lie in the
    complement of the exponential modes, where the pencil splits off as a
    d x d block, d = m - n_exp (_deflation), so their block-bidiagonal
    coefficient rows are (J+1) d, not (J+1) m, in size
    (_polynomial_part).  Both are sampled in 2 y.  The
    2 n_o mode amplitudes solve the boundary rows at both walls plus the
    nodal gauge sum_i rho(y_i) = 0 of solve_steady in the least squares
    sense.

    Raises RuntimeError when the pencil is singular (a theory of fewer
    than 20 moments lacks the moment to balance the heating, see
    _pencil_modes) or has too few modes, when round-off at large Kn leaves
    the heating no polynomial particular part, and when the pointwise
    residual of every node's equations and both walls' rows exceeds 1e-8
    of the data.  diagnostics["timings"] holds operator_s (modes and
    particular part) and solve_s (amplitudes and sampling);
    amplitude_cond is the condition number of the amplitude rows and
    modes counts both kinds.
    """
    if sys is None:
        sys = assemble_system(cfg.theory, normal_axis="y", axes=("y",))
    bc_upper = make_boundary_operator(sys, cfg.bc_kind, cfg.chi, sign=+1)
    bc_lower = make_boundary_operator(sys, cfg.bc_kind, cfg.chi, sign=-1)
    n_o, kn = sys.n_o, cfg.kn
    A, P, bs = sys.A["y"], sys.P_bgk, sys.basis

    start = time.perf_counter()
    n_poly, kappa, W, V = _pencil_modes(sys)
    if n_poly + kappa.size != 2 * n_o:
        raise RuntimeError(f"modal solve found {n_poly} polynomial and "
                           f"{kappa.size} exponential modes, not 2 n_o = {2 * n_o}")
    heat = source_vector(bs, cfg.source_amplitude, 1.0)
    g = np.linalg.solve(W.T @ A @ V, W.T @ heat)
    c_modes, c_part = _polynomial_part(A, P, kn, n_poly, W, V, heat - A @ V @ g)
    operator_s = time.perf_counter() - start

    y = cfg.grid()
    J = len(c_part) - 1
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
    amp, _, _, sv = np.linalg.lstsq(
        np.vstack([bc_lower.B @ ends[0], bc_upper.B @ ends[1], mean[:, i_rho]]),
        np.r_[r_lower - bc_lower.B @ part[0], r_upper - bc_upper.B @ part[-1],
              -part[:, i_rho].mean()], rcond=None)
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
