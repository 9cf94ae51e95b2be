"""Heated-channel benchmark: steady solvers, reference envelope, time marcher."""
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.sparse as sp

from momentbc import system
from momentbc.basis import build_basis_set
from momentbc.boundary import make_boundary_operator
from momentbc.channel import (_BATCH, _BLOWUP_FACTOR, SOURCE_AMPLITUDE,
                              WALL_TEMP_COEFF, ChannelConfig,
                              _apply_wall_state, _block_toeplitz_calls,
                              _class_operator, _decoupling_defect, _deflation,
                              _grid_operator, _march_operator, _operator_terms,
                              _pencil_modes, _phi,
                              _polynomial_part, _steady_operator,
                              _step_operator, extract_fields,
                              reference_solution, solve_modal,
                              solve_steady, source_vector, time_march_energy)
from momentbc.system import assemble_system, characteristic_decomposition, grad_theory

from conftest import cached_system


def make_config(degree=3, **kw):
    kw.setdefault("theory", grad_theory(degree, "planar"))
    return ChannelConfig(**kw)


@pytest.fixture(scope="module")
def sol_g20():
    return solve_steady(make_config(n_grid=256), sys=cached_system(3, normal="y", axes=("y",)))


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(kn=0.0)
    with pytest.raises(ValueError):
        make_config(kn=-0.1)
    with pytest.raises(ValueError):
        make_config(kn=float("nan"))
    with pytest.raises(ValueError):
        make_config(kn=float("inf"))
    with pytest.raises(ValueError):
        make_config(n_grid=8)
    with pytest.raises(ValueError):
        make_config(bc_kind="diffuse")
    with pytest.raises(ValueError):
        make_config(chi=0.0)
    with pytest.raises(ValueError):
        make_config(chi=1.5)
    with pytest.raises(ValueError):
        make_config(n_grid=20.5)


def test_config_grid():
    g = make_config(n_grid=33).grid()
    assert g.size == 33
    assert g[0] == -0.5 and g[-1] == 0.5
    assert np.abs(np.diff(g) - 1.0 / 32).max() < 1e-15


def test_source_vector_values(g20y):
    bs = g20y.basis
    i_temp = bs.index_of(0, 1, ())
    assert np.all(source_vector(bs, SOURCE_AMPLITUDE, 0.0) == 0.0)
    at_wall = source_vector(bs, SOURCE_AMPLITUDE, 0.5)
    # sqrt(2/3) * sqrt(2/3) * 1/4 = 1/6
    assert at_wall[i_temp] == pytest.approx(-1.0 / 6.0)
    others = np.delete(at_wall, i_temp)
    assert np.all(others == 0.0)
    stacked = source_vector(bs, SOURCE_AMPLITUDE, np.linspace(-0.5, 0.5, 7))
    assert stacked.shape == (7, bs.size)
    assert stacked[0, i_temp] == stacked[-1, i_temp] == pytest.approx(-1.0 / 6.0)


def test_flux_balance_target_is_integrated_heating():
    cfg = make_config(n_grid=64)
    sol = solve_steady(cfg)
    integral, _ = scipy.integrate.quad(lambda y: SOURCE_AMPLITUDE * y ** 2, -0.5, 0.5)
    assert sol.diagnostics["flux_balance_target"] == pytest.approx(integral, rel=1e-12)
    assert integral == pytest.approx(SOURCE_AMPLITUDE / 12.0)


def test_steady_solution_quality(sol_g20):
    d = sol_g20.diagnostics
    assert d["max_v_y"] < 1e-8
    assert d["symmetry_error"] < 1e-8
    assert abs(d["flux_balance"] - d["flux_balance_target"]) < 1e-6
    assert abs(sol_g20.fields["rho"].mean()) < 1e-12
    # hot walls at coefficient -sqrt(3/2): wall temperature is exactly one
    jump = sol_g20.fields["theta"][0] - 1.0
    assert abs(jump) > 1e-3
    assert np.abs(sol_g20.fields["sigma_yy"]).max() > 1e-3
    assert sol_g20.fields["theta"][len(sol_g20.y) // 2] > 1.0


def test_steady_wall_rows_hold(sol_g20):
    sys_ = cached_system(3, normal="y", axes=("y",))
    for sign, node in ((+1, -1), (-1, 0)):
        bo = make_boundary_operator(sys_, "obc", 1.0, sign)
        rhs = bo.rhs(sol_g20.config.wall_temp)
        assert np.abs(bo.B @ sol_g20.alpha[node] - rhs).max() < 1e-10


def test_steady_heat_balance_pointwise(sol_g20):
    # temperature moment is a collision invariant, so d q / d y = a y^2 holds
    dq = np.gradient(sol_g20.fields["q_y"], sol_g20.y)
    heating = SOURCE_AMPLITUDE * sol_g20.y ** 2
    assert np.abs(dq - heating)[3:-3].max() < 1e-4


def test_steady_in_plane_moments_stay_zero(sol_g20):
    sys_ = cached_system(3, normal="y", axes=("y",))
    odd_in_x = np.where(sys_.basis.parity_signs("x") < 0)[0]
    assert odd_in_x.size == 5
    assert np.abs(sol_g20.alpha[:, odd_in_x]).max() < 1e-12


def kron_oracle(terms, N):
    """CSR sum of kron(stencil, block) over the (table, h, block) terms,
    each stencil an N x N matrix spelled out from its weight table: the
    Kronecker form of the channel operators."""
    total = None
    for table, h, B in terms:
        rows, cols, vals = [], [], []
        for nodes, den, taps in table:
            nodes = np.arange(N)[nodes]
            for offset, num in taps.items():
                rows.append(nodes)
                cols.append(nodes + offset)
                vals.append(np.full(nodes.size, num / (den * h)))
        D = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows),
                                                  np.concatenate(cols))), shape=(N, N))
        term = sp.kron(D, B).tocsr()
        total = term if total is None else total + term
    return total


def apply_grid(Z, N, u):
    """D u for an operator D in grid form, through the calls that
    _block_toeplitz_calls binds to the buffers [u, out]."""
    states = np.stack([u, np.full_like(u, np.nan)])
    for call in _block_toeplitz_calls(Z, N, states)(0, 1):
        call()
    return states[1]


def full_march_form(args):
    """M's 13-node grid form over all m moments, which the march itself
    never builds: the reference its class operators are cut from."""
    return _grid_operator(_operator_terms(*args)[1], args[1].size, 13)


def _operator_setup(cfg, sys_):
    bc_upper = make_boundary_operator(sys_, cfg.bc_kind, cfg.chi, sign=+1)
    bc_lower = make_boundary_operator(sys_, cfg.bc_kind, cfg.chi, sign=-1)
    return cfg, sys_, bc_upper, bc_lower


@pytest.mark.parametrize("bc_kind", ["obc", "mbc"])
@pytest.mark.parametrize("degree", [3, 4])
@pytest.mark.parametrize("n_grid", [16, 40])
def test_steady_operator_matches_kron_oracle(bc_kind, degree, n_grid):
    # bit for bit: same pattern, and every entry summed in the same term order
    args = _operator_setup(make_config(degree=degree, n_grid=n_grid, bc_kind=bc_kind),
                           cached_system(degree, normal="y", axes=("y",)))
    K = _steady_operator(*args)
    ref = kron_oracle(_operator_terms(*args)[0], n_grid)
    K.sort_indices()
    ref.sort_indices()
    assert K.shape == ref.shape
    assert np.array_equal(K.indptr, ref.indptr)
    assert np.array_equal(K.indices, ref.indices)
    assert np.array_equal(K.data, ref.data)


@pytest.mark.parametrize("bc_kind", ["obc", "mbc"])
def test_operators_exact_on_polynomial_profiles(bc_kind):
    # every row of every weight table must reproduce A alpha' + P alpha on
    # linear profiles, and on quadratic ones wherever the stencil is at least
    # second order (all steady rows; march rows except nodes 1 and N-2)
    sys_ = cached_system(4, normal="y", axes=("y",))
    cfg = make_config(degree=4, n_grid=40, bc_kind=bc_kind)
    N, m, n_o = cfg.n_grid, sys_.size, sys_.n_o
    args = _operator_setup(cfg, sys_)
    bc_upper, bc_lower = args[2:]
    K = _steady_operator(*args)
    Z = full_march_form(args)
    assert K.shape == (N * m, N * m)
    y = cfg.grid()
    A = sys_.A["y"]
    P = sys_.P_bgk / cfg.kn
    a, b, c = np.random.default_rng(3).standard_normal((3, m))
    for curvature, inner in ((0.0, np.arange(1, N - 1)),
                             (1.0, np.arange(2, N - 2))):
        alpha = a + np.outer(y, b) + curvature * np.outer(y ** 2, c)
        slope = b + curvature * 2.0 * np.outer(y, c)
        exact = slope @ A.T + alpha @ P.T
        steady = (K @ alpha.ravel()).reshape(N, m)
        march = apply_grid(Z, N, alpha.ravel()).reshape(N, m)
        assert np.abs(steady[1:-1] - exact[1:-1]).max() < 1e-9
        assert np.abs(march[inner] + exact[inner]).max() < 1e-9
        for bc, node in ((bc_lower, 0), (bc_upper, N - 1)):
            even = exact[node, n_o:]
            assert np.abs(steady[node, :n_o] - bc.B @ alpha[node]).max() < 1e-9
            assert np.abs(steady[node, n_o:] - even).max() < 1e-9
            assert np.abs(march[node, :n_o] + bc.gain() @ even).max() < 1e-9
            assert np.abs(march[node, n_o:] + even).max() < 1e-9


def test_both_wall_kinds_coincide_on_13_moments(sol_g20):
    # the raw and symmetric-response operators differ only in columns that
    # never activate in this symmetric flow
    solm = solve_steady(make_config(n_grid=256, bc_kind="mbc"),
                        sys=cached_system(3, normal="y", axes=("y",)))
    worst = max(np.abs(solm.fields[k] - sol_g20.fields[k]).max()
                for k in sol_g20.fields)
    assert worst < 1e-9


def test_wall_kinds_differ_on_22_moments():
    cfg = make_config(degree=4, n_grid=128)
    sol_o = solve_steady(cfg)
    sol_m = solve_steady(make_config(degree=4, n_grid=128, bc_kind="mbc"))
    assert np.abs(sol_m.fields["theta"] - sol_o.fields["theta"]).max() > 0.01
    assert abs(sol_m.fields["theta"][0] - 1.0) > 1e-3
    assert np.abs(sol_m.fields["sigma_yy"]).max() > 1e-3


def test_smallest_theory_cannot_balance_heating():
    with pytest.raises(RuntimeError):
        solve_steady(make_config(degree=2, n_grid=32))


def test_extract_fields_skips_absent_moments():
    bs10 = build_basis_set(grad_theory(2, "planar"), "y")
    fields = extract_fields(bs10, np.zeros((4, bs10.size)))
    assert sorted(fields) == ["rho", "sigma_yy", "theta", "v_y"]
    bs20 = build_basis_set(grad_theory(3, "planar"), "y")
    assert "q_y" in extract_fields(bs20, np.zeros((4, bs20.size)))


def test_reference_solution_average():
    cfg = make_config(n_grid=48)
    single = solve_modal(cfg)
    same = reference_solution(cfg, theories=(cfg.theory,) * 3)
    for name in single.fields:
        assert np.abs(same.fields[name] - single.fields[name]).max() < 1e-12
    ref = reference_solution(cfg)
    assert ref.diagnostics["theories"] == ["G56", "G84", "G120"]
    assert ref.alpha is None
    # converged family sits within a temperature band of the 13-moment run
    assert np.abs(ref.fields["theta"] - single.fields["theta"]).max() < 0.05


@pytest.mark.parametrize("reduction", ["planar", "full3d"])
@pytest.mark.parametrize("degree", [3, 4, 5, 6, 7])
def test_parity_classes_have_no_cross_blocks(degree, reduction):
    # the steady solvers work on the tangentially even class alone: the
    # y-flux, symmetrizer, relaxation and both wall gains have exactly zero
    # blocks between classes, and the heating, the wall temperature column
    # and the density gauge lie in that class
    sys_ = cached_system(degree, reduction, normal="y", axes=("y",))
    classes, n_o = sys_.basis.parity_classes, sys_.n_o
    label = np.empty(sys_.size, dtype=int)
    for c, idx in enumerate(classes):
        label[idx] = c
    cross = label[:, None] != label
    for M in (sys_.A["y"], sys_.S, sys_.P_bgk):
        assert np.all(M[cross] == 0.0)
    gain_cross = label[:n_o, None] != label[n_o:]
    M_mbc, g = sys_.mbc
    assert np.all(M_mbc[gain_cross] == 0.0)
    assert np.all(sys_.obc[0][gain_cross] == 0.0)
    assert np.all(g[label[:n_o] != 0] == 0.0) and np.any(g != 0.0)
    heat = source_vector(sys_.basis, 1.0, 0.5)
    assert np.all(heat[label != 0] == 0.0)
    assert label[sys_.basis.index_of(0, 0, ())] == 0


@pytest.mark.parametrize("degree, reduction", [(3, "planar"), (4, "planar"),
                                               (7, "planar"), (4, "full3d")])
def test_class_assembly_matches_restriction(degree, reduction):
    # assembled alone, the class is the whole system's class, sliced
    sys_ = cached_system(degree, reduction, normal="y", axes=("y",))
    idx = sys_.basis.parity_classes[0]
    alone = assemble_system(grad_theory(degree, reduction), normal_axis="y",
                            axes=("y",), tangentially_even=True)
    sliced = sys_.restrict(idx)
    for sub in (alone, sliced):
        assert sub.basis.entries == tuple(sys_.basis.entries[i] for i in idx)
        assert np.array_equal(sub.basis.slots, idx)
        assert sub.n_o == np.count_nonzero(idx < sys_.n_o)
        assert len(sub.basis.parity_classes) == 1
        ix = np.ix_(idx, idx)
        assert np.array_equal(sub.S, sys_.S[ix])
        assert np.array_equal(sub.P_bgk, sys_.P_bgk[ix])
        scale = np.abs(sys_.A["y"]).max()
        assert np.abs(sub.A["y"] - sys_.A["y"][ix]).max() <= 1e-14 * scale
        odd, even = idx[idx < sys_.n_o], idx[idx >= sys_.n_o] - sys_.n_o
        for held, sub_held in ((sys_.mbc[0], sub.mbc[0]), (sys_.obc[0], sub.obc[0])):
            gain = held[np.ix_(odd, even)]
            assert np.abs(sub_held - gain).max() <= 1e-13 * np.abs(gain).max()
        up, dn = sys_.characteristic.split_fluxes
        for part, sub_part in zip((up, dn), sub.characteristic.split_fluxes):
            assert np.abs(sub_part - part[ix]).max() <= 1e-13 * scale
    # the restriction reads its system's S^1/2
    assert np.array_equal(sliced.characteristic.S_half,
                          sys_.characteristic.S_half[np.ix_(idx, idx)])


@pytest.mark.parametrize("bc_kind", ["obc", "mbc"])
@pytest.mark.parametrize("degree, reduction", [(3, "planar"), (4, "planar"),
                                               (3, "full3d"), (4, "full3d")])
def test_steady_solutions_vanish_outside_the_class(degree, reduction, bc_kind):
    # both solvers, given the system or not, return the whole state: exact
    # zeros outside the class, and the whole system's wall rows hold
    sys_ = cached_system(degree, reduction, normal="y", axes=("y",))
    cfg = make_config(theory=grad_theory(degree, reduction), bc_kind=bc_kind, n_grid=64)
    outside = np.setdiff1d(np.arange(sys_.size), sys_.basis.parity_classes[0])
    walls = [(make_boundary_operator(sys_, bc_kind, cfg.chi, sign), node)
             for sign, node in ((+1, -1), (-1, 0))]
    for solver in (solve_modal, solve_steady):
        for given in (None, sys_):
            sol = solver(cfg, sys=given)
            assert sol.alpha.shape == (64, sys_.size)
            assert np.all(sol.alpha[:, outside] == 0.0)
            assert extract_fields(sys_.basis, sol.alpha).keys() == sol.fields.keys()
            for bo, node in walls:
                assert np.abs(bo.B @ sol.alpha[node] - bo.rhs(cfg.wall_temp)).max() < 1e-13


@pytest.mark.parametrize("bc_kind", ["obc", "mbc"])
@pytest.mark.parametrize("degree, reduction", [(3, "planar"), (4, "planar"),
                                               (7, "planar"), (4, "full3d")])
def test_collocation_solves_the_whole_operator(degree, reduction, bc_kind):
    # the class solution, zero elsewhere, solves the whole system's
    # bordered steady rows K alpha + lambda e_rho = F
    sys_ = cached_system(degree, reduction, normal="y", axes=("y",))
    cfg = make_config(theory=grad_theory(degree, reduction), bc_kind=bc_kind, n_grid=64)
    sol = solve_steady(cfg)
    cfg, _, bc_upper, bc_lower = args = _operator_setup(cfg, sys_)
    N, m, n_o = cfg.n_grid, sys_.size, sys_.n_o
    F = source_vector(sys_.basis, cfg.source_amplitude, cfg.grid())
    F[0, :n_o] = bc_lower.rhs(cfg.wall_temp)
    F[-1, :n_o] = bc_upper.rhs(cfg.wall_temp)
    r = (_steady_operator(*args) @ sol.alpha.ravel()).reshape(N, m) - F
    r[:, sys_.basis.index_of(0, 0, ())] += sol.diagnostics["gauge_multiplier"]
    assert np.abs(r).max() <= 1e-12 * np.abs(F).max()


def test_modal_solution_quality_and_diagnostics():
    sys_ = cached_system(3, normal="y", axes=("y",))
    sol = solve_modal(make_config(n_grid=64), sys=sys_)
    d = sol.diagnostics
    assert sorted(d) == ["amplitude_cond", "flux_balance", "flux_balance_target",
                         "heat_flux_defect", "max_v_y", "modes", "residual",
                         "symmetry_error", "timings"]
    assert sorted(d["timings"]) == ["operator_s", "solve_s"]
    assert all(np.isfinite(t) and t > 0.0 for t in d["timings"].values())
    # the tangentially even class: 8 moments, 4 of them odd
    assert d["modes"] == {"polynomial": 4, "exponential": 4}
    # the exact solution meets criterion 07 at round-off
    assert d["residual"] < 1e-12
    assert d["max_v_y"] < 1e-13
    assert abs(d["flux_balance"] - d["flux_balance_target"]) < 1e-13
    assert d["heat_flux_defect"] < 1e-13
    assert d["symmetry_error"] < 1e-13
    assert abs(sol.fields["rho"].sum()) < 1e-12
    for sign, node in ((+1, -1), (-1, 0)):
        bo = make_boundary_operator(sys_, "obc", 1.0, sign)
        assert np.abs(bo.B @ sol.alpha[node] - bo.rhs(sol.config.wall_temp)).max() < 1e-13


def test_modal_smallest_theory_cannot_balance_heating():
    with pytest.raises(RuntimeError, match="fewer than 20 moments"):
        solve_modal(make_config(degree=2, n_grid=32))


@pytest.mark.parametrize("kn", [1e-3, 1e3, 1e6])
def test_modal_holds_at_extreme_kn(kn):
    # thin wall layers (polynomial modes in y/l), near-free flow (the
    # heating's share along slow exponential modes in phi-functions, the
    # polynomial particular part in 2y) stay at round-off
    sys_ = cached_system(7, normal="y", axes=("y",))
    d = solve_modal(make_config(degree=7, kn=kn, n_grid=64), sys=sys_).diagnostics
    for key in ("residual", "max_v_y", "symmetry_error"):
        assert d[key] < 1e-11, key
    assert abs(d["flux_balance"] - d["flux_balance_target"]) < 1e-11
    assert d["amplitude_cond"] < 1e2


@pytest.mark.parametrize("reduction, n_poly", [("planar", 6), ("full3d", 8)])
@pytest.mark.parametrize("degree", [3, 4, 5, 6, 7])
def test_pencil_modes_match_qz(degree, reduction, n_poly):
    # the symmetric reduction against scipy's QZ on the unreduced pencil
    sys_ = cached_system(degree, reduction, normal="y", axes=("y",))
    A, P = sys_.A["y"], sys_.P_bgk
    n, kappa, W, V = _pencil_modes(sys_)
    assert n == n_poly
    assert kappa.size == 2 * sys_.n_o - n_poly
    qz = scipy.linalg.eig(P, -A, right=False)
    qz = qz[np.isfinite(qz)]
    qz = np.sort(qz[np.abs(qz) > 1e-6 * np.abs(qz).max()].real)
    assert np.all(np.abs(np.sort(kappa) - qz) <= 1e-12 * np.abs(qz))
    tol = 1e-13 * np.abs(A).max()
    assert np.abs(P @ V + A @ V * kappa).max() <= tol
    assert np.abs(W.T @ P + kappa[:, None] * (W.T @ A)).max() <= tol


def unreduced_rows(A, P, kn, J, l):
    """The (J+1) m polynomial rows (j+1) A c_{j+1} + (l/Kn) P c_j in y/l."""
    return (np.kron(np.eye(J + 1), l / kn * P)
            + np.kron(np.diag(np.arange(1.0, J + 1), 1), A))


@pytest.mark.parametrize("kn", [1e-3, 0.3, 1e3])
@pytest.mark.parametrize("reduction", ["planar", "full3d"])
@pytest.mark.parametrize("degree", [3, 4, 5, 6, 7])
def test_deflated_polynomial_part_solves_unreduced_rows(degree, reduction, kn):
    # the deflated (J+1) d rows checked against the unreduced (J+1) m rows
    sys_ = cached_system(degree, reduction, normal="y", axes=("y",))
    A, P, m = sys_.A["y"], sys_.P_bgk, sys_.size
    n_poly, kappa, W, V = _pencil_modes(sys_)
    Y, Z = _deflation(A, W, V)
    d = m - kappa.size
    for B in (Y, Z):
        assert B.shape == (m, d)
        assert np.abs(B.T @ B - np.eye(d)).max() < 1e-13
    tol = 1e-13 * np.abs(A).max()
    for M in (A, P):
        assert np.abs(Z.T @ M @ V).max() <= tol
        assert np.abs(W.T @ M @ Y).max() <= tol

    heat = source_vector(sys_.basis, SOURCE_AMPLITUDE, 1.0)
    rest = heat - A @ V @ np.linalg.solve(W.T @ A @ V, W.T @ heat)
    c_modes, c_part = _polynomial_part(A, P, kn, n_poly, W, V, rest)
    J, ell = n_poly + 2, max(kn, 0.5)

    def norm_rows(l):
        # bounds the 2-norm of the rows from above, within a factor of two
        return l / kn * np.linalg.norm(P, 2) + J * np.linalg.norm(A, 2)

    # the modes in y/ell: an orthonormal basis of the null space of its rows
    u = (c_modes / ((0.5 / ell) ** np.arange(J + 1))[:, None]).reshape(n_poly, -1)
    assert np.abs(u @ u.T - np.eye(n_poly)).max() < 1e-13
    R = unreduced_rows(A, P, kn, J, ell)
    assert np.linalg.norm(R @ u.T) <= 1e-12 * norm_rows(ell)
    # the particular part in 2 y, by its backward error
    R = unreduced_rows(A, P, kn, J, 0.5)
    rhs = np.zeros((J + 1) * m)
    rhs[2 * m:3 * m] = rest / 8.0
    c = c_part.ravel()
    assert (np.linalg.norm(R @ c - rhs)
            <= 1e-12 * (norm_rows(0.5) * np.linalg.norm(c) + np.linalg.norm(rhs)))


@pytest.mark.parametrize("kn", [1e-3, 0.3, 1e3])
@pytest.mark.parametrize("degree", [6, 7])
def test_modal_full3d(degree, kn):
    # the degenerate real modes of full3d G84 and G120 stay real
    sys_ = cached_system(degree, "full3d", normal="y", axes=("y",))
    cfg = make_config(theory=grad_theory(degree, "full3d"), kn=kn, n_grid=64)
    d = solve_modal(cfg, sys=sys_).diagnostics
    assert d["residual"] < 1e-11
    assert d["amplitude_cond"] < 1e2
    assert d["modes"]["polynomial"] == 4


@pytest.mark.parametrize("degree, kn", [(4, 3e4), (6, 1e5)])
def test_modal_full3d_even_degree_near_free_flow(degree, kn):
    # even-degree solutions grow as Kn here, and their round-off with them
    cfg = make_config(theory=grad_theory(degree, "full3d"), kn=kn, n_grid=128)
    assert solve_modal(cfg).diagnostics["residual"] < 1e-9


@pytest.mark.parametrize("kn", [1e-3, 0.3, 1e3])
@pytest.mark.parametrize("degree", [3, 5, 7])
def test_modal_heat_flux_is_integrated_heating(degree, kn):
    # energy balance: q_y' = a y^2 and q_y(0) = 0, so q_y = a y^3 / 3
    sol = solve_modal(make_config(degree=degree, kn=kn, n_grid=129))
    defect = np.abs(sol.fields["q_y"] - SOURCE_AMPLITUDE * sol.y ** 3 / 3).max()
    assert defect <= 1e-12
    assert sol.diagnostics["heat_flux_defect"] == defect


def test_modal_reports_heat_flux_offset():
    # an even-degree theory with mbc walls in near-free flow leaves q_y(0) != 0,
    # which the residual check does not see; the diagnostics must show it
    cfg = make_config(theory=grad_theory(4, "full3d"), bc_kind="mbc", kn=1e3,
                      n_grid=128)
    diagnostics = solve_modal(cfg).diagnostics
    assert diagnostics["residual"] < 1e-10
    assert diagnostics["heat_flux_defect"] > 1e-10


@pytest.mark.parametrize("kn", [1e-3, 0.3, 1e3])
def test_collocation_heat_flux_is_integrated_heating(kn):
    sol = solve_steady(make_config(kn=kn, n_grid=129))
    assert np.abs(sol.fields["q_y"] - SOURCE_AMPLITUDE * sol.y ** 3 / 3).max() <= 1e-4


def test_modal_regular_pencil_roundoff_is_not_a_missing_moment():
    # G35 has the moments to balance the heating; near-free flow loses the
    # particular part to round-off, and the message says so
    with pytest.raises(RuntimeError, match="round-off at Kn") as info:
        solve_modal(make_config(degree=4, kn=1e8, n_grid=32))
    assert "fewer than 20 moments" not in str(info.value)


def test_phi_functions_match_quadrature():
    # phi_k(z) = int_0^1 exp(z (1 - t)) t^(k-1) / (k-1)! dt, on both sides
    # of the switch from the series to the recurrence at |z| = 1
    z = np.array([-40.0, -5.0, -1.5, -1.0, -0.999, -0.3, -1e-6, 0.0])
    for k in (1, 2, 3):
        exact = [scipy.integrate.quad(
            lambda t: np.exp(zi * (1 - t)) * t ** (k - 1) / math.factorial(k - 1),
            0.0, 1.0, epsabs=0.0, epsrel=1e-13)[0] for zi in z]
        assert np.abs(_phi(z, k)[0] / exact - 1.0).max() < 1e-13, k


@pytest.mark.parametrize("kn", [0.1, 0.3, 1.0, 3.0, 10.0])
def test_modal_matches_collocation_over_kn(kn):
    sys_ = cached_system(5, normal="y", axes=("y",))
    cfg = make_config(degree=5, kn=kn, n_grid=512)
    modal = solve_modal(cfg, sys=sys_)
    steady = solve_steady(cfg, sys=sys_)
    assert modal.diagnostics["amplitude_cond"] <= 1e5
    for name in steady.fields:
        assert np.abs(modal.fields[name] - steady.fields[name]).max() < 1e-6, name


@pytest.mark.parametrize("degree, bc_kind", [(3, "obc"), (4, "mbc"), (5, "obc")])
def test_collocation_third_order_against_modal(degree, bc_kind):
    sys_ = cached_system(degree, normal="y", axes=("y",))
    errors = []
    for n_grid in (64, 128, 256):
        cfg = make_config(degree=degree, n_grid=n_grid, bc_kind=bc_kind)
        exact = solve_modal(cfg, sys=sys_).fields
        steady = solve_steady(cfg, sys=sys_).fields
        errors.append([np.abs(steady[k] - exact[k]).max()
                       for k in ("rho", "theta", "sigma_yy", "q_y")])
    order = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert order.min() >= 2.8, order


def test_march_zero_data_stays_zero():
    cfg = make_config(n_grid=32, wall_temp=0.0, source_amplitude=0.0)
    res = time_march_energy(cfg, t_final=0.5, cfl=0.4, init="zero")
    assert np.abs(res.alpha).max() == 0.0
    assert np.all(res.energy == 0.0)
    assert not res.blowup


def test_march_random_data_decays():
    cfg = make_config(n_grid=64, wall_temp=0.0, source_amplitude=0.0)
    res = time_march_energy(cfg, t_final=2.0, cfl=0.4, init="random", seed=5)
    assert not res.blowup
    assert res.energy[0] > 1.0
    assert res.max_energy_growth <= 1e-6 * res.energy[0]
    assert res.energy[-1] < 0.01 * res.energy[0]
    assert np.all(np.isfinite(res.alpha))


def test_march_rejects_unknown_initializer():
    with pytest.raises(ValueError):
        time_march_energy(make_config(n_grid=32), t_final=0.1, init="ones")


@pytest.mark.parametrize("bad", [{"cfl": 0.0}, {"cfl": -1.0}, {"t_final": 0.0},
                                 {"t_final": -1.0}, {"t_final": float("inf")},
                                 {"cfl": float("nan")}])
def test_march_rejects_nonpositive_step_or_horizon(bad):
    kw = {"t_final": 0.1, "cfl": 0.4, **bad}
    with pytest.raises(ValueError, match="finite and positive"):
        time_march_energy(make_config(n_grid=32), **kw)


def test_march_detects_unstable_step():
    res = time_march_energy(make_config(n_grid=32), t_final=1.0, cfl=5.0,
                            init="random", seed=1)
    assert res.blowup
    # trace stops early once the energy bound trips
    assert res.times[-1] < 1.0


def test_solvers_share_one_characteristic_decomposition(monkeypatch):
    # the steady, modal and march solvers of one system read the
    # decomposition it holds; it is built on first use and only then
    calls = []
    monkeypatch.setattr(system, "characteristic_decomposition",
                        lambda sys_: calls.append(sys_) or characteristic_decomposition(sys_))
    sys_ = assemble_system(grad_theory(3), normal_axis="y", axes=("y",))  # nothing held yet
    cfg = make_config(n_grid=32)
    solve_steady(cfg, sys=sys_)
    solve_modal(cfg, sys=sys_)
    time_march_energy(cfg, t_final=0.1, sys=sys_)
    assert calls == [sys_]


def _march_oracle(cfg, sys_):
    """Kronecker-form march operator M, with the operator arguments."""
    args = _operator_setup(cfg, sys_)
    return kron_oracle(_operator_terms(*args)[1], cfg.n_grid), args


# Interior nodes go b at a time, b = 4 for m <= 16 and 2 above: M's N - 4
# and R's N - 12 interior nodes leave 0 over at N = 16, 40 and 48, and 1, 2,
# 3 and 3 (b = 4) or 1, 0, 1 and 1 (b = 2) at N = 17, 18, 19 and 43.
_LEFTOVER_GRIDS = [16, 17, 18, 19, 40, 43]


@pytest.mark.parametrize("bc_kind", ["obc", "mbc"])
@pytest.mark.parametrize("degree", [3, 4])
@pytest.mark.parametrize("n_grid", _LEFTOVER_GRIDS)
def test_block_toeplitz_apply_matches_csr(bc_kind, degree, n_grid):
    # at N = 16 the four edge block rows sit closest to each other; m is
    # 13 (b = 4) at degree 3 and 22 (b = 2) at degree 4
    sys_ = cached_system(degree, normal="y", axes=("y",))
    cfg = make_config(degree=degree, n_grid=n_grid, bc_kind=bc_kind)
    M, args = _march_oracle(cfg, sys_)
    rng = np.random.default_rng(11)
    # M from its 5-node grid form (k = 2) and from the 13-node one that the
    # march folds (k = 6), each bound once to a set of buffers and applied
    # between them
    for Z in (_grid_operator(_operator_terms(*args)[1], sys_.size, 5),
              full_march_form(args)):
        states = rng.standard_normal((4, n_grid * sys_.size))
        calls = _block_toeplitz_calls(Z, n_grid, states)
        for i, j in ((0, 1), (2, 3), (1, 0)):
            u = states[i].copy()
            states[j] = np.nan
            for call in calls(i, j):
                call()
            assert np.array_equal(states[i], u)
            out, ref = states[j], M @ u
            assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("bc_kind", ["obc", "mbc"])
@pytest.mark.parametrize("degree", [3, 4, 7])
@pytest.mark.parametrize("n_grid", _LEFTOVER_GRIDS)
def test_step_operator_matches_kron_oracle(bc_kind, degree, n_grid):
    # R u = (I + Z + Z^2/2 + Z^3/6) u and r = dt (I + Z/2 + Z^2/6) b, Z = dt M;
    # at N = 16 the interior rows of R are nodes 6..9 only.  Folded whole,
    # and folded per parity class in that class's S-orthonormal variables
    # w = L^T u, where it must give L^T times the oracle's rows of the class.
    # The classes have 8 and 5 moments at degree 3 and 14 and 8 at degree 4
    # (b = 4), 40 and 30 at degree 7 (b = 2).
    sys_ = cached_system(degree, normal="y", axes=("y",))
    cfg = make_config(degree=degree, n_grid=n_grid, bc_kind=bc_kind)
    M, args = _march_oracle(cfg, sys_)
    terms, b = _march_operator(*args)
    Z = full_march_form(args)
    h = cfg.grid()[1] - cfg.grid()[0]
    dt = 0.4 * h / sys_.characteristic.max_speed
    R, r = _step_operator(Z, b.ravel(), dt, n_grid)
    assert R.shape == (13, sys_.size, 13, sys_.size)

    def poly(v, coeffs):
        out, z = coeffs[0] * v, v
        for c in coeffs[1:]:
            z = dt * (M @ z)
            out = out + c * z
        return out

    rng = np.random.default_rng(12)
    for _ in range(3):
        u = rng.standard_normal(n_grid * sys_.size)
        out = apply_grid(R, n_grid, u)
        ref = poly(u, (1.0, 1.0, 1.0 / 2.0, 1.0 / 6.0))
        assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()
    ref_r = dt * poly(b.ravel(), (1.0, 1.0 / 2.0, 1.0 / 6.0))
    assert np.abs(r - ref_r).max() <= 1e-14 * np.abs(ref_r).max()

    m = sys_.size
    for idx in sys_.basis.parity_classes:
        L = np.linalg.cholesky(sys_.S[np.ix_(idx, idx)])
        R_c, r_c = _step_operator(*_class_operator(terms, b, idx, L), dt, n_grid)
        assert R_c.shape == (13, idx.size, 13, idx.size)
        u = np.zeros((n_grid, m))
        u[:, idx] = rng.standard_normal((n_grid, idx.size))
        out = apply_grid(R_c, n_grid, (u[:, idx] @ L).ravel())
        ref = poly(u.ravel(), (1.0, 1.0, 1.0 / 2.0, 1.0 / 6.0)).reshape(n_grid, m)[:, idx] @ L
        assert np.abs(out - ref.ravel()).max() <= 1e-14 * np.abs(ref).max()
        ref = ref_r.reshape(n_grid, m)[:, idx] @ L
        assert np.abs(r_c - ref.ravel()).max() <= 1e-14 * np.abs(ref_r).max()


@pytest.mark.parametrize("chi", [0.6, 1.0])
@pytest.mark.parametrize("bc_kind", ["obc", "mbc"])
@pytest.mark.parametrize("degree, reduction", [(3, "planar"), (4, "planar"),
                                               (7, "planar"), (3, "full3d"),
                                               (5, "full3d")])
def test_march_operator_parity_classes(degree, reduction, bc_kind, chi):
    # M is block diagonal over the tangential-parity classes up to the
    # round-off of the characteristic split, S exactly, and the data b live
    # in the all-even class
    sys_ = cached_system(degree, reduction, normal="y", axes=("y",))
    cfg = make_config(theory=grad_theory(degree, reduction), n_grid=16,
                      bc_kind=bc_kind, chi=chi)
    args = _operator_setup(cfg, sys_)
    Z, b = full_march_form(args), _march_operator(*args)[1]
    classes = sys_.basis.parity_classes
    m = sys_.size
    assert len(classes) == (2 if reduction == "planar" else 4)
    assert np.array_equal(np.sort(np.concatenate(classes)), np.arange(m))
    sizes = {(3, "planar"): [8, 5], (3, "full3d"): [8, 5, 5, 2]}
    if (degree, reduction) in sizes:
        assert [idx.size for idx in classes] == sizes[degree, reduction]
    label = np.empty(m, dtype=int)
    for c, idx in enumerate(classes):
        label[idx] = c
        signs = [sys_.basis.parity_signs(axis)[idx] for axis in ("x", "z")]
        assert all(np.all(sign == sign[0]) for sign in signs)
        assert (c == 0) == all(sign[0] == 1.0 for sign in signs)
    cross = label[:, None] != label
    # Z[row node, i, column node, j]
    scale = np.abs(Z).max()
    dropped = max(np.abs(Z[i, :, j][cross]).max() for i in range(13) for j in range(13))
    assert dropped <= 1e-14 * scale
    assert _decoupling_defect(Z, classes) == dropped / scale
    assert np.all(sys_.S[cross] == 0.0)
    outside = np.setdiff1d(np.arange(m), classes[0])
    assert np.all(b[:, outside] == 0.0)
    assert np.abs(b).max() > 0.0


@pytest.mark.parametrize("bc_kind", ["obc", "mbc"])
@pytest.mark.parametrize("degree, reduction", [(3, "planar"), (7, "planar"),
                                               (3, "full3d"), (5, "full3d")])
def test_class_operator_cuts_the_full_grid_form(degree, reduction, bc_kind):
    # each class's operator, summed from its own blocks of M's terms, is bit
    # for bit the class cut out of M's full-m 13-node form and transformed;
    # the defect read from M's 5-node form is that of the 13-node one
    sys_ = cached_system(degree, reduction, normal="y", axes=("y",))
    cfg = make_config(theory=grad_theory(degree, reduction), n_grid=16,
                      bc_kind=bc_kind, chi=0.6)
    args = _operator_setup(cfg, sys_)
    terms, b = _march_operator(*args)
    Z, m = full_march_form(args), sys_.size
    classes = sys_.basis.parity_classes
    for idx in classes:
        L = np.linalg.cholesky(sys_.S[np.ix_(idx, idx)])
        Z_c, b_c = _class_operator(terms, b, idx, L)
        blocks = L.T @ Z.transpose(0, 2, 1, 3)[..., idx[:, None], idx] @ np.linalg.inv(L).T
        assert np.array_equal(Z_c, blocks.transpose(0, 2, 1, 3))
        assert np.array_equal(b_c, (b[:, idx] @ L).ravel())
    assert (_decoupling_defect(_grid_operator(terms, m, 5), classes)
            == _decoupling_defect(Z, classes))


def test_march_builds_no_full_grid_form():
    # full3d G120 (m = 120, classes of 40, 30, 30 and 20 moments): the
    # march's peak allocation stays below one full-m 13-node grid form
    sys_ = cached_system(7, "full3d", normal="y", axes=("y",))
    cfg = make_config(theory=grad_theory(7, "full3d"), n_grid=32)
    tracemalloc.start()
    try:
        time_march_energy(cfg, t_final=1e-3, sys=sys_)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (13 * sys_.size) ** 2 * 8


def _csr_march(M, b, u, dt, steps, S, h, limit=np.inf):
    """Plain SSP-RK3 march with CSR products, one step at a time: the
    oracle for the folded, batched march.  Records the energy at step 0
    and after every step, and stops at the first energy that is not
    finite or exceeds limit.  Returns the recorded step numbers and
    energies and the state at the last of them."""
    N = u.size // S.shape[0]
    marks, energies = [], []
    for k in range(steps + 1):
        if k:
            u1 = u + dt * (M @ u + b)
            u2 = 0.75 * u + 0.25 * (u1 + dt * (M @ u1 + b))
            u = u / 3.0 + (2.0 / 3.0) * (u2 + dt * (M @ u2 + b))
        a = u.reshape(N, -1)
        marks.append(k)
        energies.append(h * np.einsum("ij,jk,ik->", a, S, a))
        if not energies[-1] <= limit:
            break
    return np.array(marks), np.array(energies), u.reshape(N, -1)


def _march_and_oracle(cfg, sys_, init, steps, cfl):
    """time_march_energy over a horizon of `steps` steps, and _csr_march
    from the same initial state."""
    M, args = _march_oracle(cfg, sys_)
    b = _march_operator(*args)[1].ravel()
    bc_upper, bc_lower = args[2:]
    N, m = cfg.n_grid, sys_.size
    h = cfg.grid()[1] - cfg.grid()[0]
    t_final = (steps - 0.5) * cfl * h / sys_.characteristic.max_speed
    res = time_march_energy(cfg, t_final=t_final, cfl=cfl, init=init, seed=4,
                            sys=sys_)
    alpha0 = (np.zeros((N, m)) if init == "zero"
              else np.random.default_rng(4).standard_normal((N, m)))
    alpha0 = _apply_wall_state(alpha0, bc_upper, bc_lower, cfg.wall_temp, sys_.n_o)
    limit = _BLOWUP_FACTOR * max(h * np.einsum("ij,jk,ik->", alpha0, sys_.S, alpha0),
                                 np.abs(b).max() ** 2, 1.0)
    return res, b, _csr_march(M, b, alpha0.ravel(), res.dt, steps, sys_.S, h, limit)


# G20 planar and full3d, G35 planar: two, four and two parity classes
_ORACLE_THEORIES = ((3, "planar"), (3, "full3d"), (4, "planar"))


@pytest.mark.parametrize("bc_kind, driven, init", [("mbc", True, "zero"),
                                                   ("obc", False, "random")])
def test_march_matches_csr_oracle(bc_kind, driven, init):
    # the oracle marches the unsplit M in the moments themselves; at N = 35
    # R's 23 interior nodes leave 3 over from 4-node super-nodes
    for (degree, reduction), n_grid in itertools.product(_ORACLE_THEORIES, (48, 35)):
        sys_ = cached_system(degree, reduction, normal="y", axes=("y",))
        kw = {} if driven else {"wall_temp": 0.0, "source_amplitude": 0.0}
        cfg = make_config(theory=grad_theory(degree, reduction), n_grid=n_grid,
                          bc_kind=bc_kind, **kw)
        steps = 50
        res, b, (_, energies, alpha) = _march_and_oracle(cfg, sys_, init, steps, 0.4)
        assert (np.abs(b).max() > 0) == driven
        assert res.times.size == steps + 1 and not res.blowup
        assert np.abs(res.energy - energies).max() <= 1e-12 * np.abs(energies).max()
        assert np.abs(res.alpha - alpha).max() <= 1e-12 * np.abs(alpha).max()
        assert res.march_s > 0.0


@pytest.mark.parametrize("cfl", [0.4, 5.0])
def test_march_batches_match_per_step_oracle(cfl):
    # 61 steps: the steps fill no whole number of batches, and the last
    # batch, the eighth, lands backward with 5 steps; at cfl = 5 the march
    # blows up within its first batch, and the trace and alpha must end at
    # the step that tripped, not at the end of the batch
    for degree, reduction in _ORACLE_THEORIES:
        sys_ = cached_system(degree, reduction, normal="y", axes=("y",))
        cfg = make_config(theory=grad_theory(degree, reduction), n_grid=32,
                          bc_kind="mbc")
        steps = 61
        res, _, (marks, energies, alpha) = _march_and_oracle(
            cfg, sys_, "random", steps, cfl)
        assert np.array_equal(res.times, marks * res.dt)
        assert res.blowup == (cfl > 1.0) == (marks[-1] < steps)
        if res.blowup:
            assert marks.size - 1 < _BATCH
        assert np.abs(res.energy - energies).max() <= 1e-12 * np.abs(energies).max()
        assert np.abs(res.alpha - alpha).max() <= 1e-12 * np.abs(alpha).max()


def test_march_routes_match_per_step_oracle():
    # what the step binds only where it applies, all at once: the data's
    # add (driven), the leftover product (R's 23 interior nodes at N = 35
    # leave 3 over from 4-node super-nodes) and four parity classes (full3d
    # G20); 2 _BATCH + 3 steps fill a batch landing forward, one landing
    # backward and a partial last one landing forward
    sys_ = cached_system(3, "full3d", normal="y", axes=("y",))
    cfg = make_config(theory=grad_theory(3, "full3d"), n_grid=35, bc_kind="mbc")
    steps = 2 * _BATCH + 3
    res, b, (marks, energies, alpha) = _march_and_oracle(
        cfg, sys_, "random", steps, 0.4)
    assert np.abs(b).max() > 0 and len(res.classes) == 4 and not res.blowup
    assert marks.size - 1 == steps
    assert np.array_equal(res.times, marks * res.dt)
    assert np.abs(res.energy - energies).max() <= 1e-12 * np.abs(energies).max()
    assert np.abs(res.alpha - alpha).max() <= 1e-12 * np.abs(alpha).max()


def test_march_accepts_array_init():
    cfg = make_config(n_grid=32, wall_temp=0.0, source_amplitude=0.0)
    sys_ = cached_system(3, normal="y", axes=("y",))
    init = np.zeros((32, sys_.size))
    init[10:20, sys_.basis.index_of(0, 1, ())] = 0.3
    res = time_march_energy(cfg, t_final=0.5, cfl=0.4, init=init, sys=sys_)
    assert not res.blowup
    assert res.energy[0] > 0.0
    assert res.energy[-1] <= res.energy[0]


def test_wall_temperature_convention():
    # default wall coefficient maps to unit wall temperature
    assert -np.sqrt(2.0 / 3.0) * WALL_TEMP_COEFF == pytest.approx(1.0)
