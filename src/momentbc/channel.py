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
block row, and only the rows of nodes 0, 1, N-2 and N-1 differ.  So each
is held as its dense matrix on a 5-node grid, summed from the tables; the
steady solve lays its rows out as a sparse matrix.  The system is linear
and time-invariant, so the marcher folds the three stages into one step
operator, a cubic in the march operator.  Every moment is even or odd
along each tangential axis, and the march keeps those parities, so it
runs as one such system per parity class (two planar, four in full3d), in
variables in which the energy is a plain sum of squares; each class's
cubic is raised densely on 13 nodes from its own blocks.  Each step
applies a class's shared row to super-nodes of b consecutive nodes: one
BLAS GEMM of a contiguous copy of the overlapping windows of its state
with a block-banded matrix that holds the row b times, so each GEMM row
writes b nodes, plus one batched product for both walls.  Those numpy
calls, for every class, are bound once before the march, so the step
loop pays for the calls and their arithmetic only.

The steady solvers need only one of those classes.  The flux along y,
the symmetrizer, the relaxation and both wall gains keep the parities,
and the heating, the wall temperature and the density gauge lie in the
class even along every tangential axis, so the steady solution is zero
outside it.  Both steady solvers assemble and solve that class alone
(_heated_class) and return the whole state, exact zeros outside it; m in
them is the class's size, 40 of the 70 moments of planar G120 and of the
120 of full3d G120.  The march starts from states that fill every class
and marches them all.
"""

from __future__ import annotations

import importlib
import math
import numbers
import time
import warnings
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .basis import BasisSet
from .boundary import accommodation_gain, make_boundary_operator
from .system import MomentSystem, MomentTheory, assemble_system, grad_theory


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
        if not isinstance(self.n_grid, numbers.Integral):
            raise ValueError(f"n_grid must be an integer (got {self.n_grid!r})")
        if self.n_grid < 16:
            raise ValueError("need at least 16 grid nodes")
        accommodation_gain(self.chi)
        if self.bc_kind not in ("mbc", "obc"):
            raise ValueError("bc_kind must be 'mbc' or 'obc'")

    def grid(self) -> np.ndarray:
        return np.linspace(-0.5, 0.5, self.n_grid)


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
    """Steady channel fields on the grid y, with the state and diagnostics."""

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


def _operator_terms(cfg, sys, bc_upper, bc_lower):
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
    A_up, A_dn = sys.characteristic.split_fluxes
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


def _grid_operator(terms, m: int, n: int) -> np.ndarray:
    """Grid form of sum_t table_t (x) B_t over (table, h, B) terms.

    An operator whose nodes k..N-1-k share one block row over node offsets
    -k..+k, and whose k nodes nearest each wall reach only the 2k nearest
    it, is fixed by its dense matrix on n nodes, any odd n >= 2k + 1: its
    grid form, an (n, m, n, m) array Z with block Z[i, :, j] from node j
    to node i.  Every table has k = 2.  Each block is summed
    num / (den * h) * B in term order.
    """
    Z = np.zeros((n, m, n, m))
    for table, h, B in terms:
        for nodes, den, taps in table:
            rows = np.arange(n)[nodes]
            for offset, num in taps.items():
                Z[rows, :, rows + offset] += num / (den * h) * B
    return Z


def _steady_operator(cfg, sys, bc_upper, bc_lower) -> sp.csr_matrix:
    """Steady operator K as CSR, laid out from its 5-node grid form.

    Block row i is a row of the grid form, five dense BSR blocks from
    column node clip(i - 2, 0, N - 5), nodes 2..N-3 repeating the middle
    row; exact zeros, within a block or where terms cancel, are not stored.
    """
    N, m = cfg.n_grid, sys.size
    Z = _grid_operator(_operator_terms(cfg, sys, bc_upper, bc_lower)[0], m, 5)
    which = np.r_[0, 1, np.full(N - 4, 2), 3, 4]
    start = np.clip(np.arange(N) - 2, 0, N - 5)
    K = sp.bsr_matrix((Z.transpose(0, 2, 1, 3)[which].reshape(5 * N, m, m),
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
        # energy balance: q_y' = a y^2 with q_y(0) = 0 by symmetry
        exact = cfg.source_amplitude * cfg.grid() ** 3 / 3.0
        diagnostics["heat_flux_defect"] = float(np.abs(fields["q_y"] - exact).max())
    return diagnostics


def _channel_system(cfg: ChannelConfig, sys: MomentSystem = None):
    """The y-normal system (assembled when none is given) with the
    operators of its upper and lower walls."""
    if sys is None:
        sys = assemble_system(cfg.theory, normal_axis="y", axes=("y",))
    return (sys, make_boundary_operator(sys, cfg.bc_kind, cfg.chi, sign=+1),
            make_boundary_operator(sys, cfg.bc_kind, cfg.chi, sign=-1))


def _heated_class(cfg: ChannelConfig, sys: MomentSystem = None):
    """_channel_system on the tangentially even class, where the steady
    data live: assembled alone when no system is given, else the given
    system restricted to its parity_classes[0].  The walls' gains are the
    class's own."""
    if sys is None:
        sys = assemble_system(cfg.theory, normal_axis="y", axes=("y",),
                              tangentially_even=True)
    else:
        sys = sys.restrict(sys.basis.parity_classes[0])
    return _channel_system(cfg, sys)


def _whole_state(bs: BasisSet, alpha: np.ndarray) -> np.ndarray:
    """The (N, m) state of the theory's whole basis from a class state on
    bs, exactly zero outside the class."""
    out = np.zeros((len(alpha), bs.theory.moment_count))
    out[:, bs.slots] = alpha
    return out


def solve_steady(cfg: ChannelConfig, sys: MomentSystem = None) -> ChannelSolution:
    """Steady channel solve on cfg.n_grid collocation nodes.

    Interior rows use characteristic-biased third-order stencils; at the
    walls the odd-moment rows are the boundary conditions and the
    even-moment rows one-sided third-order differences (_steady_operator).
    The density column only enters through its derivative, so the
    plain system is singular up to a uniform density shift; a
    zero-total-density gauge closes it through a bordered augmentation.
    The operator is laid out and solved on the tangentially even class
    alone (_heated_class): K keeps the tangential parities and the data
    lie in that class, so the other classes' moments are zero, and alpha
    holds them as exact zeros.  The residual is that of the class rows.
    diagnostics["timings"] holds operator_s (operator and border) and
    solve_s (the sparse solve).
    """
    sys, bc_upper, bc_lower = _heated_class(cfg, sys)

    m = sys.size
    n_o = sys.n_o
    N = cfg.n_grid
    y = cfg.grid()
    bs = sys.basis
    size = N * m
    top = (N - 1) * m

    rhs = np.zeros(size + 1)
    F = source_vector(bs, cfg.source_amplitude, y)
    rhs[:size] = F.ravel()
    rhs[0:n_o] = bc_lower.rhs(cfg.wall_temp)
    rhs[top:top + n_o] = bc_upper.rhs(cfg.wall_temp)

    # zero-total-density gauge via a bordered system
    start = time.perf_counter()
    rho_slots = np.arange(N) * m + bs.index_of(0, 0, ())
    gauge = sp.csr_matrix((np.ones(N), (np.zeros(N, dtype=int), rho_slots)),
                          shape=(1, size))
    K = sp.bmat([[_steady_operator(cfg, sys, bc_upper, bc_lower), gauge.T.tocsr()],
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
    return ChannelSolution(config=cfg, y=y, alpha=_whole_state(bs, alpha),
                           fields=fields, diagnostics=diagnostics)


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
    dec = sys.characteristic
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


def _phi(z: np.ndarray, *orders):
    """phi_k(z) = sum_i z^i / (i + k)!, for z <= 0, as a tuple with one
    array per order k given.

    Summed as a series below |z| = 1, and above it by the recurrence
    phi_{j+1}(z) = (phi_j(z) - 1/j!) / z from phi_0(z) = e^z, which passes
    through every lower order on its way to the highest.
    """
    small = np.abs(z) < 1.0
    zs, large = z[small], z[~small]
    rec, out = np.exp(large), {}
    for j in range(max(orders)):
        rec = (rec - 1.0 / math.factorial(j)) / large
        if j + 1 in orders:
            series = np.zeros(zs.size)
            for i in range(19, -1, -1):
                series = series * zs + 1.0 / math.factorial(i + j + 1)
            out[j + 1] = np.empty_like(z)
            out[j + 1][small], out[j + 1][~small] = series, rec
    return tuple(out[k] for k in orders)


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
    sense.  All of it runs on the tangentially even class alone
    (_heated_class), the moments outside it being exactly zero, so n_o and
    m are the class's: planar and full3d G120 both have 2 n_o = 40 modes,
    4 of them polynomial.

    Raises RuntimeError when the pencil is singular (a theory of fewer
    than 20 moments lacks the moment to balance the heating, see
    _pencil_modes) or has too few modes, when round-off at large Kn leaves
    the heating no polynomial particular part, and when the pointwise
    residual of every node's equations and both walls' rows exceeds 1e-8
    of the data.  diagnostics["timings"] holds operator_s (modes and
    particular part) and solve_s (amplitudes and sampling);
    amplitude_cond is the condition number of the amplitude rows and
    modes counts both kinds, in the class.
    """
    sys, bc_upper, bc_lower = _heated_class(cfg, sys)
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
    phi1, phi2, phi3 = _phi(z, 1, 2, 3)
    x_part = g * h * (y_wall ** 2 * phi1 + 2 * y_wall * h * phi2 + 2 * h ** 2 * phi3)
    decay = np.exp(z)

    def values(p, e):
        """(n, m, 2 n_o) mode values from n rows of powers and decays."""
        return np.concatenate([np.einsum("nj,kjm->nmk", p, c_modes),
                               e[:, None, :] * V], axis=2)

    ends = values(powers[[0, -1]], decay[[0, -1]])
    mean = values(powers.mean(axis=0, keepdims=True), decay.mean(axis=0, keepdims=True))
    part = powers @ c_part + x_part @ V.T
    i_rho = bs.index_of(0, 0, ())
    r_lower, r_upper = bc_lower.rhs(cfg.wall_temp), bc_upper.rhs(cfg.wall_temp)
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
    return ChannelSolution(config=cfg, y=y, alpha=_whole_state(bs, alpha),
                           fields=fields, diagnostics=diagnostics)


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
    """Energy trace and final state of one channel march."""

    config: ChannelConfig
    y: np.ndarray
    times: np.ndarray
    energy: np.ndarray
    alpha: np.ndarray
    fields: dict
    dt: float
    blowup: bool
    march_s: float             # wall time of the step loop
    operator_s: float          # wall time to build the step operator
    classes: tuple             # sizes of the tangential-parity classes
    decoupling_defect: float   # largest dropped cross-class |M| / max|M|

    @property
    def max_energy_growth(self) -> float:
        """Largest rise of the energy trace above its running minimum."""
        running = np.minimum.accumulate(self.energy)
        return float((self.energy - running).max())


def _march_operator(cfg, sys, bc_upper, bc_lower):
    """March operator M, as its (table, h, m x m block) terms, and the
    source b, as an (N, m) array: (terms, b).  No grid form is built here;
    each parity class sums its own from the terms (_class_operator)."""
    n_o = sys.n_o
    b = source_vector(sys.basis, cfg.source_amplitude, cfg.grid())
    for node, bc in ((0, bc_lower), (-1, bc_upper)):
        b[node, :n_o] = bc.gain() @ b[node, n_o:]
    return _operator_terms(cfg, sys, bc_upper, bc_lower)[1], b


def _block_toeplitz_calls(Z, N: int, states: np.ndarray):
    """Bind an operator D in grid form (_grid_operator) to state buffers.

    Z is the (w, m, w, m) grid form, read as half-width k = w // 2: W is
    the (w m, m) transpose of its middle row, the row that nodes k..N-1-k
    share, and its first and last k rows are those of the k nodes nearest
    each wall.  states is an (n, N m) array, each row one state buffer with
    unit element stride.  The interior nodes are grouped into super-nodes
    of b consecutive nodes, b = 4 for m <= 16 and 2 above, so that one GEMM
    row writes b nodes and BLAS sees b m columns rather than m.  Super-node
    s, nodes k + sb .. k + sb + b - 1, is the window of nodes
    sb .. sb + b - 1 + 2k times the ((b + 2k) m, b m) band that holds W b
    times, each copy one node lower.  The windows overlap, so they are
    first copied, by slice assignment, into a contiguous buffer, which
    repeats each state entry 1 + 2k/b times; np.dot then hands the
    C-contiguous product to BLAS's GEMM, the call np.matmul makes, without
    the generalized-ufunc dispatch.  The (N - 2k) mod b interior nodes left
    over next to the upper wall are their own window, a contiguous run of
    the state, times the band's leading block; that product is bound only
    where they exist.  Both walls are one batched matmul over the state's
    first and last 2k nodes.  The views of every buffer are built here,
    once.  Returns calls(i, j): the tuple of numpy calls, bound to their
    arguments, that write D states[i] into states[j].
    """
    w, m = Z.shape[:2]
    k = w // 2
    W = Z[k].reshape(m, w * m).T.copy()
    # nodes 0..k-1 (N-k..N-1) reach only column nodes 0..2k-1 (N-2k..N-1)
    E = np.stack([Z[:k, :, :-1], Z[k + 1:, :, 1:]]).reshape(2, k * m, 2 * k * m)
    b = 4 if m <= 16 else 2
    rows, left = divmod(N - 2 * k, b)
    band = np.zeros(((b + 2 * k) * m, b * m))
    for j in range(b):
        band[j * m:(j + w) * m, j * m:(j + 1) * m] = W
    tail = band[:(left + 2 * k) * m, :left * m].copy()
    window = np.empty((rows, (b + 2 * k) * m))
    n, (step, item) = len(states), states.strides
    windows = list(np.lib.stride_tricks.as_strided(
        states, (n, rows, (b + 2 * k) * m), (step, b * m * item, item)))
    inner = list(states[:, k * m:(k + rows * b) * m].reshape(n, rows, b * m))
    # the leftover nodes and the window they span, as single rows
    tails = list(states[:, rows * b * m:].reshape(n, 1, -1))
    ends = list(states[:, (k + rows * b) * m:(N - k) * m].reshape(n, 1, -1))
    # per buffer, the column span and the rows of both walls as (2, ., 1)
    spans = list(np.lib.stride_tricks.as_strided(
        states, (n, 2, 2 * k * m, 1), (step, (N - 2 * k) * m * item, item, item)))
    walls = list(np.lib.stride_tricks.as_strided(
        states, (n, 2, k * m, 1), (step, (N - k) * m * item, item, item)))

    def calls(i, j):
        leftover = (partial(np.dot, tails[i], tail, ends[j]),) if left else ()
        return (partial(window.__setitem__, Ellipsis, windows[i]),
                partial(np.dot, window, band, inner[j]),
                *leftover,
                partial(np.matmul, E, spans[i], walls[j]))

    return calls


def _step_operator(Z, b, dt: float, N: int):
    """One SSP-RK3 step of d u/dt = M u + b as u -> R u + r, in grid form.

    For a linear, time-invariant system the three stages are exactly
    R = I + dt M T and r = dt T b, T = I + dt M / 2 + (dt M)^2 / 6.  M
    spans node offsets -2..+2, so R spans -6..+6 and T -4..+4, and M's
    13-node grid form Z (a class's, _class_operator) fixes theirs, and
    Horner's rule raises both from it.  Returns (R, r), R as its 13-node
    grid form.
    """
    n, m = Z.shape[:2]
    Z = Z.reshape(n * m, n * m) * dt
    R = Z / 3.0
    R.flat[::n * m + 1] += 1.0
    T = Z @ R
    T *= 0.5
    T.flat[::n * m + 1] += 1.0
    np.matmul(Z, T, out=R)
    R.flat[::n * m + 1] += 1.0

    states = np.stack([b, np.empty_like(b)])
    for call in _block_toeplitz_calls(T.reshape(n, m, n, m), N, states)(0, 1):
        call()
    return R.reshape(n, m, n, m), dt * states[1]


def _decoupling_defect(Z, classes) -> float:
    """Largest entry of M (grid form Z) between parity classes, over max|M|."""
    label = np.empty(Z.shape[1], dtype=int)
    for c, idx in enumerate(classes):
        label[idx] = c
    cross = label[:, None] != label
    dropped = np.abs(Z.transpose(0, 2, 1, 3)[..., cross]).max(initial=0.0)
    return float(dropped / np.abs(Z).max())


def _class_operator(terms, b, idx, L):
    """The block of M (terms) and b (N, m) on the moments idx, in the
    S-orthonormal variables w = L^T u of that class, S_c = L L^T.

    Each term's block is cut to idx, and the class's grid form is summed
    from the cut terms on 13 nodes, not the 5 that fix M, so that the
    cubic in M that _step_operator folds from it is fixed by it too.  The
    grid form sums entry by entry in term order, so this is bit for bit
    the idx block of M's full-m form, which is never built.  Every
    m_c x m_c block B then becomes L^T B L^-T and every node vector of b
    L^T b, so the march keeps its form and the class energy u^T S_c u is
    |w|^2.  Returns (Z_c, b_c), Z_c in grid form.
    """
    T, T_inv = L.T, np.linalg.inv(L).T
    cut = [(table, h, B[np.ix_(idx, idx)]) for table, h, B in terms]
    Z = _grid_operator(cut, idx.size, 13)
    blocks = T @ Z.transpose(0, 2, 1, 3) @ T_inv
    return blocks.transpose(0, 2, 1, 3), (b[:, idx] @ L).ravel()


def _apply_wall_state(alpha, bc_upper, bc_lower, wall_temp, n_o):
    """Overwrite the wall-node odd moments with the boundary relation."""
    alpha[0, :n_o] = bc_lower.gain() @ alpha[0, n_o:] + bc_lower.rhs(wall_temp)
    alpha[-1, :n_o] = bc_upper.gain() @ alpha[-1, n_o:] + bc_upper.rhs(wall_temp)
    return alpha


# the march stops as blown up once the energy exceeds this multiple of its scale
_BLOWUP_FACTOR = 1e6
# steps marched per energy evaluation
_BATCH = 8


def time_march_energy(cfg: ChannelConfig, t_final: float = 10.0,
                      cfl: float = 0.4, init="zero", seed: int = 0,
                      sys: MomentSystem = None) -> MarchResult:
    """Explicit march of the channel system recording the entropy energy.

    init is 'zero', 'random' (seeded nodal noise) or an (N, m) array; wall
    odd moments are made consistent with the boundary relation before the
    march.  The march operator is block diagonal over the tangential-parity
    classes (BasisSet.parity_classes), so each class is marched on its own, in
    the variables w = L_c^T u with S_c = L_c L_c^T, from its own blocks
    of M's terms (_class_operator): no grid form over all m moments is
    built on 13 nodes.  The cross-class entries of M are round-off and are
    dropped, and the largest of them, over max|M|, is the result's
    decoupling_defect, read from M's 5-node form, which holds every
    distinct block of M.  Every step applies each class's folded SSP-RK3
    step operator, w -> R w + r (_step_operator), as the numpy calls that
    _block_toeplitz_calls binds, all classes' in a row, plus one add of r
    when the data b are not zero.  The energy E(t) = dy * sum_nodes
    alpha^T S alpha = dy |w|^2 is recorded after every step, for up to
    _BATCH steps at a time: they are marched into the rows of one buffer,
    each row holding the classes side by side, then weighed by one
    contraction.  Batches land alternately in rows 1.._BATCH from row 0
    and in rows _BATCH-1..0 from row _BATCH, so each starts where the last
    one ended; every batch's calls are bound before the march, which then
    only makes calls and weighs batches.  The march stops as blown up at
    the first step whose energy is not finite or exceeds _BLOWUP_FACTOR
    times its scale; the trace ends there and alpha is that state, mapped
    back by u = L_c^-T w.  operator_s on the result is the wall time to
    build R and r and bind the calls, march_s that of the step loop.  cfl
    and t_final must be finite and positive.
    """
    if not (0 < cfl < math.inf and 0 < t_final < math.inf):
        raise ValueError(f"cfl and t_final must be finite and positive "
                         f"(got cfl={cfl}, t_final={t_final})")
    sys, bc_upper, bc_lower = _channel_system(cfg, sys)

    m = sys.size
    N = cfg.n_grid
    y = cfg.grid()
    h = y[1] - y[0]
    if isinstance(init, str):
        if init == "zero":
            alpha = np.zeros((N, m))
        elif init == "random":
            alpha = np.random.default_rng(seed).standard_normal((N, m))
        else:
            raise ValueError(f"unknown initializer {init!r}")
    else:
        alpha = np.array(init, dtype=float).reshape(N, m)
    alpha = _apply_wall_state(alpha, bc_upper, bc_lower, cfg.wall_temp, sys.n_o)

    dt = cfl * h / max(sys.characteristic.max_speed, 1e-12)
    dt = min(dt, 1.5 * cfg.kn)
    steps = max(1, int(math.ceil(t_final / dt)))
    dt = t_final / steps

    start = time.perf_counter()
    terms, b = _march_operator(cfg, sys, bc_upper, bc_lower)
    classes = sys.basis.parity_classes
    defect = _decoupling_defect(_grid_operator(terms, m, 5), classes)
    b_max = float(np.abs(b).max())
    # each row holds the classes side by side, class c as its (N, m_c)
    # state in S-orthonormal variables
    U = np.empty((_BATCH + 1, N * m))
    r = np.empty(N * m)
    stops = N * np.cumsum([idx.size for idx in classes])
    segments = [slice(hi - N * idx.size, hi) for idx, hi in zip(classes, stops)]
    factors, bound = [], []
    for idx, seg in zip(classes, segments):
        L = np.linalg.cholesky(sys.S[np.ix_(idx, idx)])
        R, r[seg] = _step_operator(*_class_operator(terms, b, idx, L), dt, N)
        bound.append(_block_toeplitz_calls(R, N, U[:, seg]))
        U[0, seg] = (alpha[:, idx] @ L).ravel()
        factors.append(L)
    source = bool(np.any(r))

    def step(i, j):
        """The calls of one march step from row i to row j."""
        calls = sum((bind(i, j) for bind in bound), ())
        return calls + (partial(np.add, U[j], r, U[j]),) if source else calls

    def batch(forward, size):
        """The calls of one batch of size steps and its landing rows in
        step order."""
        if forward:
            rows, landed = range(size + 1), U[1:size + 1]
        else:
            rows = range(_BATCH, _BATCH - size - 1, -1)
            landed = U[_BATCH - size:_BATCH][::-1]
        return sum(map(step, rows, rows[1:]), ()), landed

    batches = -(-steps // _BATCH)
    full = [batch(True, _BATCH), batch(False, _BATCH)]
    plan = [full[t % 2] for t in range(batches - 1)]
    plan.append(batch(batches % 2 == 1, steps - (batches - 1) * _BATCH))
    operator_s = time.perf_counter() - start

    times = np.arange(steps + 1) * dt
    energy = np.empty_like(times)
    energy[0] = h * float(np.dot(U[0], U[0]))
    limit = _BLOWUP_FACTOR * max(energy[0], b_max ** 2, 1.0)
    blowup = False
    recorded = 0
    start = time.perf_counter()
    # the states a batch marches past a blow-up may overflow; none is kept
    with np.errstate(over="ignore", invalid="ignore"):
        for calls, landed in plan:
            for call in calls:
                call()
            e = h * np.einsum("bi,bi->b", landed, landed)
            energy[recorded + 1:recorded + 1 + e.size] = e
            # a nan maximum fails the test too
            if not e.max() <= limit:
                tripped = int(np.flatnonzero(~(e <= limit))[0])
                recorded += tripped + 1
                final = landed[tripped]
                blowup = True
                break
            recorded += e.size
            final = landed[-1]
    march_s = time.perf_counter() - start

    alpha = np.empty((N, m))
    for idx, seg, L in zip(classes, segments, factors):
        alpha[:, idx] = final[seg].reshape(N, idx.size) @ np.linalg.inv(L)
    return MarchResult(config=cfg, y=y, times=times[:recorded + 1],
                       energy=energy[:recorded + 1], alpha=alpha,
                       fields=extract_fields(sys.basis, alpha), dt=dt,
                       blowup=blowup, march_s=march_s, operator_s=operator_s,
                       classes=tuple(idx.size for idx in classes),
                       decoupling_defect=defect)
