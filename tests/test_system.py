"""Assembled moment systems: symmetrizer, fluxes, characteristic structure."""
import numpy as np
import pytest

from momentbc.system import (MomentTheory, assemble_system, bgk_projector,
                             characteristic_decomposition, grad_theory,
                             theory_from_name, verify_full_symmetry)
from momentbc.basis import build_basis_set

from conftest import cached_system


# Entropy Gram of the 13-moment planar theory, frozen from an independent
# hand computation over ordered tensor components (odd-in-x block first:
# v_x, sigma_xy, q_x, rank-3 xxx/xyy, then the even block).
GOLDEN_S13 = np.array([
    [0.5, 0,   0,   0,   0,   0,   0,   0,   0,   0,   0,   0,   0],
    [0,   1.0, 0,   0,   0,   0,   0,   0,   0,   0,   0,   0,   0],
    [0,   0,   0.5, 0,   0,   0,   0,   0,   0,   0,   0,   0,   0],
    [0,   0,   0,   2.0, 1.5, 0,   0,   0,   0,   0,   0,   0,   0],
    [0,   0,   0,   1.5, 3.0, 0,   0,   0,   0,   0,   0,   0,   0],
    [0,   0,   0,   0,   0,   0.5, 0,   0,   0,   0,   0,   0,   0],
    [0,   0,   0,   0,   0,   0,   0.5, 0,   0,   0,   0,   0,   0],
    [0,   0,   0,   0,   0,   0,   0,   0.5, 0,   0,   0,   0,   0],
    [0,   0,   0,   0,   0,   0,   0,   0,   1.0, 0.5, 0,   0,   0],
    [0,   0,   0,   0,   0,   0,   0,   0,   0.5, 1.0, 0,   0,   0],
    [0,   0,   0,   0,   0,   0,   0,   0,   0,   0,   0.5, 0,   0],
    [0,   0,   0,   0,   0,   0,   0,   0,   0,   0,   0,   3.0, 1.5],
    [0,   0,   0,   0,   0,   0,   0,   0,   0,   0,   0,   1.5, 2.0],
])

GOLDEN_ORDER13 = [
    "a_x^(0)", "a_xy^(0)", "a_x^(1)", "a_xxx^(0)", "a_xyy^(0)",
    "a^(0)", "a_y^(0)", "a^(1)", "a_xx^(0)", "a_yy^(0)", "a_y^(1)",
    "a_xxy^(0)", "a_yyy^(0)",
]


def test_theory_validation():
    with pytest.raises(ValueError):
        MomentTheory(max_rank=2, radial_counts=(1, 1), reduction="planar")
    with pytest.raises(ValueError):
        MomentTheory(max_rank=1, radial_counts=(1, 0), reduction="planar")
    with pytest.raises(ValueError):
        MomentTheory(max_rank=1, radial_counts=(1, 1), reduction="spherical")
    with pytest.raises(ValueError):
        grad_theory(1)


def test_theory_auto_name():
    th = MomentTheory(max_rank=3, radial_counts=(2, 2, 1, 1), reduction="planar")
    assert th.name == "G20"
    assert th.full3d_count == 20
    assert th.moment_count == 13


def test_degree_family_counts_full3d():
    # full tetrahedral numbers (L+1)(L+2)(L+3)/6
    for lam, count in zip(range(2, 8), [10, 20, 35, 56, 84, 120]):
        th = grad_theory(lam, "full3d")
        assert th.full3d_count == count == (lam + 1) * (lam + 2) * (lam + 3) // 6
        assert th.moment_count == count
        assert th.name == f"G{count}"


def test_degree_family_counts_planar():
    for lam, count in zip(range(2, 8), [7, 13, 22, 34, 50, 70]):
        assert grad_theory(lam, "planar").moment_count == count


def test_theory_from_name_roundtrip():
    th = theory_from_name("G20")
    assert th.radial_counts == (2, 2, 1, 1)
    assert th.max_rank == 3
    assert theory_from_name("g35").full3d_count == 35
    with pytest.raises(ValueError):
        theory_from_name("G999")


def test_symmetrizer_matches_golden_13(g20x):
    assert g20x.basis.names() == GOLDEN_ORDER13
    assert np.array_equal(g20x.S, GOLDEN_S13)


def test_symmetrizer_blocks_by_index(g20x):
    bs = g20x.basis
    S = g20x.S
    i_xx = bs.index_of(2, 0, ("x", "x"))
    i_yy = bs.index_of(2, 0, ("y", "y"))
    i_xy = bs.index_of(2, 0, ("x", "y"))
    # deviatoric pair couples through the eliminated zz component
    assert S[i_xx, i_yy] == pytest.approx(0.5)
    assert S[i_xx, i_xx] == pytest.approx(1.0)
    assert S[i_xy, i_xy] == pytest.approx(1.0)
    i3a = bs.index_of(3, 0, ("x", "x", "x"))
    i3b = bs.index_of(3, 0, ("x", "y", "y"))
    assert S[i3a, i3a] == pytest.approx(2.0)
    assert S[i3b, i3b] == pytest.approx(3.0)
    assert S[i3a, i3b] == pytest.approx(1.5)
    # scalars carry the plain 1/2 entropy weight
    for (n, s, comp) in [(0, 0, ()), (0, 1, ()), (1, 0, ("x",)), (1, 1, ("y",))]:
        i = bs.index_of(n, s, comp)
        assert S[i, i] == pytest.approx(0.5)
        row = S[i].copy()
        row[i] = 0.0
        assert np.all(row == 0.0)


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_symmetrizer_spd(degree):
    sys_ = cached_system(degree)
    S = sys_.S
    assert np.abs(S - S.T).max() == 0.0
    assert np.linalg.eigvalsh(S).min() > 0.1


@pytest.mark.parametrize("degree", [2, 3])
@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_sa_symmetric_every_axis(degree, axis):
    sys_ = cached_system(degree)
    SA = sys_.S @ sys_.A[axis]
    assert np.abs(SA - SA.T).max() < 1e-12


def test_plain_flux_not_symmetric(g20x):
    # only S A is symmetric; the raw moment flux is not
    A = g20x.A_normal
    assert np.abs(A - A.T).max() > 0.5


def test_normal_flux_parity_blocks(g20x):
    A = g20x.A_normal
    n_o = g20x.n_o
    assert np.all(A[:n_o, :n_o] == 0.0)
    assert np.all(A[n_o:, n_o:] == 0.0)
    assert np.abs(A[:n_o, n_o:]).max() > 0.9


def test_flux_odd_even_block(g20x):
    SA = g20x.S @ g20x.A_normal
    n_o = g20x.n_o
    Aoe = g20x.flux_odd_even
    assert Aoe.shape == (n_o, g20x.n_e)
    assert np.abs(SA[:n_o, n_o:] - Aoe).max() == 0.0
    assert np.abs(SA[n_o:, :n_o] - Aoe.T).max() < 1e-12


def test_flux_odd_even_held_once():
    # a fresh system builds the block on its first read and holds it
    sys_ = assemble_system(grad_theory(3), normal_axis="x", axes=("x",))
    Aoe = sys_.flux_odd_even
    assert sys_.flux_odd_even is Aoe
    assert not Aoe.flags.writeable
    with pytest.raises(ValueError):
        Aoe[0, 0] = 1.0


def test_tangential_flux_mixes_parities(g20x):
    # xi_y keeps x-parity, so its nonzero entries sit in the diagonal blocks
    Ay = g20x.A["y"]
    n_o = g20x.n_o
    assert np.abs(Ay[:n_o, :n_o]).max() > 0.9
    assert np.all(Ay[:n_o, n_o:] == 0.0)


def test_out_of_plane_flux_vanishes_planar(g20x):
    assert np.all(g20x.A["z"] == 0.0)


def test_continuity_coupling(g20x):
    bs = g20x.basis
    i_rho = bs.index_of(0, 0, ())
    i_vx = bs.index_of(1, 0, ("x",))
    A = g20x.A_normal
    assert A[i_vx, i_rho] == pytest.approx(1.0)
    assert A[i_rho, i_vx] == pytest.approx(1.0)


def test_bgk_projector_planar(g20x):
    P = g20x.P_bgk
    bs = g20x.basis
    assert np.all(P == np.diag(np.diag(P)))
    assert np.abs(P @ P - P).max() == 0.0
    zeros = [i for i in range(bs.size) if P[i, i] == 0.0]
    expect = {bs.index_of(0, 0, ()), bs.index_of(0, 1, ()),
              bs.index_of(1, 0, ("x",)), bs.index_of(1, 0, ("y",))}
    assert set(zeros) == expect


def test_bgk_projector_full3d():
    th = grad_theory(2, "full3d")
    P = bgk_projector(build_basis_set(th))
    assert int(np.trace(P)) == 10 - 5


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_kernel_is_even_sided(degree):
    sys_ = cached_system(degree)
    A = sys_.A_normal
    _, sv, vt = np.linalg.svd(A)
    null_dim = int(np.sum(sv < 1e-10))
    assert null_dim == sys_.n_e - sys_.n_o
    kernel = vt[len(sv) - null_dim:].T
    assert np.abs(kernel[:sys_.n_o, :]).max() < 1e-12


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_characteristic_counts_and_symmetry(degree):
    sys_ = cached_system(degree)
    dec = characteristic_decomposition(sys_)
    assert dec.n_neg == sys_.n_o
    assert dec.n_pos == sys_.n_o
    assert dec.n_zero == sys_.n_e - sys_.n_o
    # speeds come in +- pairs
    assert np.abs(np.sort(-dec.lam_minus) - np.sort(dec.lam_plus)).max() < 1e-12
    assert np.all(dec.lam_minus < 0)
    assert np.all(dec.lam_plus > 0)
    assert dec.max_speed == pytest.approx(np.abs(dec.lam_minus).max())


def test_characteristic_basis_reconstructs_flux(g20x):
    dec = characteristic_decomposition(g20x)
    X = dec.X
    assert np.abs(X.T @ X - np.eye(g20x.size)).max() < 1e-12
    lam = np.concatenate([dec.lam_minus, np.zeros(dec.n_zero), dec.lam_plus])
    A_back = dec.S_half_inv @ X @ np.diag(lam) @ X.T @ dec.S_half
    assert np.abs(A_back - g20x.A_normal).max() < 1e-10


def test_split_fluxes_sum_to_flux(g20x):
    dec = characteristic_decomposition(g20x)
    up, dn = dec.split_fluxes
    # built once per decomposition and shared read-only
    assert dec.split_fluxes[0] is up and not up.flags.writeable
    assert np.abs(up + dn - g20x.A_normal).max() < 1e-10
    # each part is definite in the entropy scalar product
    Sup = g20x.S @ up
    assert np.abs(Sup - Sup.T).max() < 1e-10
    assert np.linalg.eigvalsh(0.5 * (Sup + Sup.T)).min() > -1e-10


def test_rotated_normal_same_spectrum(g20x, g20y):
    lam_x = characteristic_decomposition(g20x)
    lam_y = characteristic_decomposition(g20y)
    sx = np.sort(np.concatenate([lam_x.lam_minus, lam_x.lam_plus]))
    sy = np.sort(np.concatenate([lam_y.lam_minus, lam_y.lam_plus]))
    assert lam_x.n_zero == lam_y.n_zero
    assert np.abs(sx - sy).max() < 1e-12


def test_parity_reflection_conjugates_flux(g20x):
    R = np.diag(g20x.basis.parity_signs("x"))
    assert np.all(R @ R == np.eye(g20x.size))
    assert np.abs(R @ g20x.A_normal @ R + g20x.A_normal).max() == 0.0
    assert np.abs(R @ g20x.A["y"] @ R - g20x.A["y"]).max() == 0.0
    assert np.abs(R @ g20x.S @ R - g20x.S).max() == 0.0


@pytest.mark.parametrize("degree, reduction, normal", [(3, "planar", "x"),
                                                       (4, "full3d", "y")])
def test_characteristic_held_read_only(degree, reduction, normal):
    # the system holds one decomposition, equal bit for bit to a fresh one,
    # whose arrays (and the split fluxes derived from them) are read-only
    sys_ = assemble_system(grad_theory(degree, reduction), normal_axis=normal)
    dec = sys_.characteristic
    assert sys_.characteristic is dec
    names = dec._fields
    arrays = [getattr(dec, name) for name in names] + list(dec.split_fluxes)
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        dec.S_half[0, 0] = 0.0
    ref = characteristic_decomposition(sys_)
    for name in names:
        held, fresh = getattr(dec, name), getattr(ref, name)
        assert held.dtype == fresh.dtype and held.shape == fresh.shape
        assert held.tobytes() == fresh.tobytes()


@pytest.mark.parametrize("degree,reduction", [(2, "planar"), (3, "planar"),
                                              (2, "full3d")])
def test_componentwise_flux_crosscheck(degree, reduction):
    bs = build_basis_set(grad_theory(degree, reduction))
    rep = verify_full_symmetry(bs, "x")
    assert rep.ok
    assert rep.max_asymmetry < 1e-12
    assert rep.max_odd_odd == 0.0
