"""Wall operators: accommodation gain, raw reflection matrix, Onsager response."""
import math

import numpy as np
import pytest

from momentbc import boundary
from momentbc.boundary import (accommodation_gain, assemble_mbc, assemble_obc,
                               make_boundary_operator)
from momentbc.stability import wall_certificate
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
    M, g = assemble_mbc(sys_)
    bs = sys_.basis
    j_vy = bs.index_of(1, 0, ("y",)) - sys_.n_o
    # shear row: only the tangential-velocity column survives
    expect = np.zeros(sys_.n_e)
    expect[j_vy] = 1.0 / (2.0 * math.sqrt(math.pi))
    assert np.abs(M[1] - expect).max() < 1e-14
    # wall temperature cannot enter: no heat-flux moment to carry it
    assert np.all(g == 0.0)


def test_mbc_slip_coefficient():
    bo = make_boundary_operator(cached_system(2), "mbc", 1.0, +1)
    sys_ = cached_system(2)
    j_vy = sys_.basis.index_of(1, 0, ("y",)) - sys_.n_o
    # shear gain 2 beta M = 1/sqrt(pi) at full accommodation
    assert bo.gain()[1, j_vy] == pytest.approx(1.0 / math.sqrt(math.pi))


def test_mbc_held_once_per_system(monkeypatch):
    # M_mbc and its temperature column g depend on neither chi, the kind nor
    # the sign, so a system's first boundary operator assembles them, every
    # later one reuses the same read-only arrays, and an accommodation
    # wall's gain is sign 2 beta M_mbc
    calls = []
    monkeypatch.setattr(boundary, "assemble_mbc",
                        lambda sys_: calls.append(sys_) or assemble_mbc(sys_))
    sys_ = assemble_system(grad_theory(3), normal_axis="x")  # nothing held yet
    cases = (("mbc", 1.0, +1), ("obc", 0.6, +1), ("mbc", 0.6, -1), ("obc", 1.0, -1))
    ops = [make_boundary_operator(sys_, kind, chi, sign) for kind, chi, sign in cases]
    assert calls == [sys_]
    M, g = sys_.mbc
    assert sys_.mbc[0] is M and sys_.mbc[1] is g
    assert not M.flags.writeable and not g.flags.writeable
    ref_M, ref_g = assemble_mbc(sys_)  # the unpatched function
    assert np.array_equal(M, ref_M) and np.array_equal(g, ref_g)
    for (kind, chi, sign), bo in zip(cases, ops):
        assert np.array_equal(bo.g, sign * ref_g)
        if kind == "mbc":
            assert np.array_equal(bo.gain(), sign * 2.0 * accommodation_gain(chi) * ref_M)


def test_onsager_terms_held_once_per_system(monkeypatch):
    # Theta_obc = sym(K) Aoe with K = M_mbc[:, :n_o] inv(Aoe_hat) depends on
    # neither chi nor the sign, so a system builds it only when an Onsager
    # wall is first asked for, a chi scan inverts Aoe_hat once, and every
    # Onsager wall's gain is sign 2 beta Theta_obc
    calls = {"obc": [], "inv": []}
    monkeypatch.setattr(boundary, "assemble_obc",
                        lambda sys_: calls["obc"].append(sys_) or assemble_obc(sys_))
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls["inv"].append(a.shape) or inv(a))
    sys_ = assemble_system(grad_theory(4), normal_axis="x")  # nothing held yet
    n_o = sys_.n_o
    make_boundary_operator(sys_, "mbc", 1.0, +1)
    assert calls == {"obc": [], "inv": []}
    chis = (0.2, 0.4, 0.6, 0.8, 1.0)
    ops = [make_boundary_operator(sys_, "obc", chi, sign) for chi in chis for sign in (+1, -1)]
    assert calls == {"obc": [sys_], "inv": [(n_o, n_o)]}
    theta_obc, diag = sys_.obc
    assert sys_.obc[0] is theta_obc and not theta_obc.flags.writeable
    # the parent formula: sym(2 beta K) Aoe
    ref_M, _ = assemble_mbc(sys_)
    Aoe = sys_.flux_odd_even
    K = ref_M[:, :n_o] @ inv(Aoe[:, :n_o])
    assert diag["cond_Aoe_hat"] == np.linalg.cond(Aoe[:, :n_o])
    for i, chi in enumerate(chis):
        beta = accommodation_gain(chi)
        L_raw = 2.0 * beta * K
        ref = 0.5 * (L_raw + L_raw.T) @ Aoe
        for sign, bo in zip((+1, -1), ops[2 * i:2 * i + 2]):
            assert np.array_equal(bo.gain(), sign * 2.0 * beta * theta_obc)
            assert bo.diagnostics["cond_Aoe_hat"] == diag["cond_Aoe_hat"]
            if chi == 1.0:
                assert np.array_equal(bo.gain(), sign * ref)
            else:
                assert np.abs(bo.gain() - sign * ref).max() <= 1e-14 * np.abs(ref).max()


def test_mbc_temp_column_appears_with_heat_flux(g20x):
    _, g = assemble_mbc(g20x)
    assert np.abs(g).max() > 0.1
    assert g[0] == 0.0


def test_wall_inhomogeneity_linearity(g20x):
    # the wall temperature is the only datum, and the rows' right side is
    # linear in it
    for kind in ("mbc", "obc"):
        bo = make_boundary_operator(g20x, kind, 0.6, +1)
        assert np.all(bo.rhs(0.0) == 0.0)
        g1, g2 = bo.rhs(0.7), bo.rhs(1.4)
        assert np.abs(g2 - 2.0 * g1).max() == 0.0
        assert g1[0] == 0.0 and np.abs(g1).max() > 0.1


def test_boundary_operator_shape_and_structure(g20x):
    for kind in ("mbc", "obc"):
        bo = make_boundary_operator(g20x, kind, 1.0, +1)
        assert bo.B.shape == (g20x.n_o, g20x.size)
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
    theta, diag = assemble_obc(g20x)
    # Theta_obc = sym(K) Aoe, so its wall form Aoe^T sym(K) Aoe is symmetric
    # positive semi-definite
    F = theta.T @ g20x.flux_odd_even
    assert np.abs(F - F.T).max() < 1e-12 * np.abs(F).max()
    eigs = np.linalg.eigvalsh(0.5 * (F + F.T))
    assert eigs.min() >= -1e-9 * eigs.max()
    # normal velocity row never relaxes
    assert np.abs(theta[0]).max() < 1e-14
    assert set(diag) == {"asymmetry", "cond_Aoe_hat", "min_eig_L", "max_eig_L"}
    # per unit 2 beta: the response at full accommodation reads twice these
    assert diag["max_eig_L"] > 0.05
    assert diag["min_eig_L"] >= -1e-9 * max(diag["max_eig_L"], 0.5)
    full = make_boundary_operator(g20x, "obc", 1.0, +1).diagnostics
    assert full == {key: value if key == "cond_Aoe_hat" else 2.0 * value
                    for key, value in diag.items()}


def test_obc_response_scales_with_gain(g20x):
    theta1 = make_boundary_operator(g20x, "obc", 1.0, +1).gain()
    theta5 = make_boundary_operator(g20x, "obc", 0.5, +1).gain()
    # beta(0.5)/beta(1.0) = 1/3
    assert np.abs(theta5 - theta1 / 3.0).max() < 1e-14


def test_orientation_is_parity_conjugate(g20x):
    R = np.diag(g20x.basis.parity_signs("x"))
    for kind in ("mbc", "obc"):
        bp = make_boundary_operator(g20x, kind, 1.0, +1)
        bm = make_boundary_operator(g20x, kind, 1.0, -1)
        assert np.abs(bm.B - (-(bp.B @ R))).max() == 0.0
        assert np.abs(bm.gain() + bp.gain()).max() == 0.0
        assert np.abs(bm.rhs(0.7) + bp.rhs(0.7)).max() == 0.0


@pytest.mark.parametrize("degree", [3, 4, 5, 6, 7, 8])
def test_wall_form_min_flags_raw_wall(degree):
    # G20-G165: the Onsager wall form is positive semi-definite, while the
    # raw accommodation wall draws energy from some even state at every chi
    sys_ = cached_system(degree)
    assert wall_certificate(sys_, "obc").wall_form_min >= -1e-12
    assert wall_certificate(sys_, "mbc").wall_form_min < 0.0


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
