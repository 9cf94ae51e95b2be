"""Wall operators: accommodation gain, raw reflection matrix, Onsager response."""
import math

import numpy as np
import pytest

from momentbc import boundary
from momentbc.boundary import (WallData, accommodation_gain, assemble_mbc,
                               assemble_obc, make_boundary_operator,
                               wall_inhomogeneity)
from momentbc.system import assemble_system, characteristic_decomposition, grad_theory

from conftest import cached_system, characteristic_form


def test_accommodation_gain_values():
    assert accommodation_gain(1.0) == pytest.approx(1.0)
    assert accommodation_gain(0.5) == pytest.approx(1.0 / 3.0)
    for bad in (0.0, -1.0, 1.2):
        with pytest.raises(ValueError):
            accommodation_gain(bad)


def test_mbc_first_row_is_eliminated():
    # no-penetration elimination zeroes the normal-velocity row exactly
    for degree in (2, 3):
        M, _ = assemble_mbc(cached_system(degree))
        assert np.all(M[0] == 0.0)


def test_mbc_smallest_theory_values():
    sys_ = cached_system(2)
    M, g_cols = assemble_mbc(sys_)
    bs = sys_.basis
    j_vy = bs.index_of(1, 0, ("y",)) - sys_.n_o
    # shear row: only the tangential-velocity column survives
    expect = np.zeros(sys_.n_e)
    expect[j_vy] = 1.0 / (2.0 * math.sqrt(math.pi))
    assert np.abs(M[1] - expect).max() < 1e-14
    # wall temperature cannot enter: no heat-flux moment to carry it
    assert np.all(g_cols["temp"] == 0.0)
    slip = np.array([0.0, 1.0 / (2.0 * math.sqrt(math.pi))])
    assert np.abs(g_cols[("velocity", "y")] - slip).max() < 1e-14


def test_mbc_slip_coefficient():
    bo = make_boundary_operator(cached_system(2), "mbc", 1.0, +1)
    sys_ = cached_system(2)
    j_vy = sys_.basis.index_of(1, 0, ("y",)) - sys_.n_o
    # shear gain 2 beta M = 1/sqrt(pi) at full accommodation
    assert bo.gain()[1, j_vy] == pytest.approx(1.0 / math.sqrt(math.pi))


def test_mbc_held_once_per_system(monkeypatch):
    # M_mbc and its g columns depend on neither chi, the kind nor the sign,
    # so a system's first boundary operator assembles them and every later
    # one reuses the same read-only arrays
    calls = []
    monkeypatch.setattr(boundary, "assemble_mbc",
                        lambda sys_: calls.append(sys_) or assemble_mbc(sys_))
    sys_ = assemble_system(grad_theory(3), normal_axis="x")  # nothing held yet
    cases = (("mbc", 1.0, +1), ("obc", 0.6, +1), ("mbc", 0.6, -1), ("obc", 1.0, -1))
    ops = [make_boundary_operator(sys_, kind, chi, sign) for kind, chi, sign in cases]
    assert calls == [sys_]
    M, g_cols = sys_.mbc
    assert sys_.mbc[0] is M and sys_.mbc[1] is g_cols
    assert not M.flags.writeable
    assert not any(col.flags.writeable for col in g_cols.values())
    with pytest.raises(TypeError):
        g_cols["temp"] = np.zeros_like(g_cols["temp"])
    ref_M, ref_g = assemble_mbc(sys_)
    assert np.array_equal(M, ref_M) and g_cols.keys() == ref_g.keys()
    for (kind, chi, sign), bo in zip(cases, ops):
        assert all(np.array_equal(bo.g_columns[key], sign * ref_g[key]) for key in ref_g)
        if kind == "mbc":
            assert np.array_equal(bo.gain(), sign * 2.0 * accommodation_gain(chi) * ref_M)


def test_mbc_temp_column_appears_with_heat_flux(g20x):
    _, g_cols = assemble_mbc(g20x)
    assert np.abs(g_cols["temp"]).max() > 0.1
    assert g_cols["temp"][0] == 0.0


def test_wall_inhomogeneity_linearity(g20x):
    _, g_cols = assemble_mbc(g20x)
    zero = wall_inhomogeneity(g_cols, WallData())
    assert np.all(zero == 0.0)
    g1 = wall_inhomogeneity(g_cols, WallData(temp=0.7, velocity={"y": -0.3}))
    g2 = wall_inhomogeneity(g_cols, WallData(temp=1.4, velocity={"y": -0.6}))
    assert np.abs(g2 - 2.0 * g1).max() == 0.0
    assert g1[0] == 0.0


def test_boundary_operator_shape_and_structure(g20x):
    for kind in ("mbc", "obc"):
        bo = make_boundary_operator(g20x, kind, 1.0, +1)
        assert bo.B.shape == (g20x.n_o, g20x.size)
        assert bo.size == g20x.size
        assert np.all(bo.B[:, :g20x.n_o] == np.eye(g20x.n_o))
        assert np.abs(bo.gain() + bo.B[:, g20x.n_o:]).max() == 0.0
        # first row is pure no-penetration
        e1 = np.zeros(g20x.size)
        e1[0] = 1.0
        assert np.abs(bo.B[0] - e1).max() < 1e-14


def test_boundary_kind_and_sign_validation(g20x):
    with pytest.raises(ValueError):
        make_boundary_operator(g20x, "slip", 1.0, +1)
    with pytest.raises(ValueError):
        make_boundary_operator(g20x, "mbc", 1.0, 0)
    with pytest.raises(ValueError):
        make_boundary_operator(g20x, "mbc", 0.0, +1)


def test_obc_response_matrix(g20x):
    L, diag = assemble_obc(g20x, 1.0)
    assert np.abs(L - L.T).max() == 0.0
    eigs = np.linalg.eigvalsh(L)
    assert eigs.min() >= -1e-9 * eigs.max()
    assert eigs.max() > 0.1
    # normal velocity row never relaxes
    assert np.abs(L[0]).max() < 1e-14
    assert np.abs(L[:, 0]).max() < 1e-14
    assert set(diag) == {"asymmetry", "cond_Aoe_hat", "min_eig_L", "max_eig_L"}
    assert diag["min_eig_L"] >= -1e-9 * max(diag["max_eig_L"], 1.0)


def test_onsager_terms_held_once_per_system(monkeypatch):
    # Aoe, cond(Aoe_hat) and M_mbc[:, :n_o] inv(Aoe_hat) depend on neither
    # chi nor the sign, so a chi scan inverts Aoe_hat once per system
    calls = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a.shape) or inv(a))
    sys_ = assemble_system(grad_theory(4), normal_axis="x")  # nothing held yet
    chis = (0.2, 0.4, 0.6, 0.8, 1.0)
    ops = [make_boundary_operator(sys_, "obc", chi, sign) for chi in chis for sign in (+1, -1)]
    assert calls == [(sys_.n_o, sys_.n_o)]
    Aoe, cond, K = sys_.onsager
    assert sys_.onsager[0] is Aoe and sys_.onsager[2] is K
    assert not Aoe.flags.writeable and not K.flags.writeable
    ref_Aoe = sys_.flux_odd_even()
    ref_M, _ = assemble_mbc(sys_)
    ref_inv = inv(ref_Aoe[:, :sys_.n_o])
    assert np.array_equal(Aoe, ref_Aoe) and cond == np.linalg.cond(ref_Aoe[:, :sys_.n_o])
    for i, chi in enumerate(chis):
        L_raw = 2.0 * accommodation_gain(chi) * (ref_M[:, :sys_.n_o] @ ref_inv)
        L = 0.5 * (L_raw + L_raw.T)
        for sign, bo in zip((+1, -1), ops[2 * i:2 * i + 2]):
            assert np.array_equal(bo.gain(), sign * (L @ ref_Aoe))
            assert bo.diagnostics["cond_Aoe_hat"] == cond


def test_obc_response_scales_with_gain(g20x):
    L1, _ = assemble_obc(g20x, 1.0)
    L5, _ = assemble_obc(g20x, 0.5)
    # beta(0.5)/beta(1.0) = 1/3
    assert np.abs(L5 - L1 / 3.0).max() < 1e-14


def test_orientation_is_parity_conjugate(g20x):
    R = np.diag(g20x.basis.parity_signs("x"))
    wall = WallData(temp=0.7, velocity={"y": -0.3})
    for kind in ("mbc", "obc"):
        bp = make_boundary_operator(g20x, kind, 1.0, +1)
        bm = make_boundary_operator(g20x, kind, 1.0, -1)
        assert np.abs(bm.B - (-(bp.B @ R))).max() == 0.0
        assert np.abs(bm.gain() + bp.gain()).max() == 0.0
        assert np.abs(bm.rhs(wall) + bp.rhs(wall)).max() == 0.0


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_obc_annihilates_standing_modes(degree):
    sys_ = cached_system(degree)
    dec = characteristic_decomposition(sys_)
    kernel = dec.S_half_inv @ dec.X_zero
    bo = make_boundary_operator(sys_, "obc", 1.0, +1)
    assert np.abs(bo.B @ kernel).max() < 1e-12


def test_obc_consistent_states_dissipate(g20x):
    # any state satisfying the homogeneous wall rows carries outgoing energy
    dec = characteristic_decomposition(g20x)
    theta = make_boundary_operator(g20x, "obc", 1.0, +1).gain()
    rng = np.random.default_rng(3)
    for _ in range(100):
        a_even = rng.standard_normal(g20x.n_e)
        alpha = np.concatenate([theta @ a_even, a_even])
        assert characteristic_form(dec, alpha) >= -1e-9


def test_smallest_theory_operators_coincide():
    # with no heat flux the raw reflection already equals the symmetric
    # response: single shear moment, one gain coefficient
    sys_ = cached_system(2)
    bm = make_boundary_operator(sys_, "mbc", 1.0, +1)
    bo = make_boundary_operator(sys_, "obc", 1.0, +1)
    assert np.abs(bm.B - bo.B).max() < 1e-13


def test_richer_theory_operators_differ(g20x):
    bm = make_boundary_operator(g20x, "mbc", 1.0, +1)
    bo = make_boundary_operator(g20x, "obc", 1.0, +1)
    assert np.abs(bm.B - bo.B).max() > 0.1
