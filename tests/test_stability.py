"""Energy admissibility checks: kernel condition plus reflection form."""
import dataclasses

import numpy as np
import pytest

from momentbc.basis import verify_orthogonality
from momentbc.boundary import make_boundary_operator
from momentbc.stability import check_stability, wall_certificate
from momentbc.system import (MomentTheory, assemble_system,
                             characteristic_decomposition, verify_full_symmetry)

from conftest import cached_system, characteristic_form

def decomposition(degree):
    return cached_system(degree).characteristic


def report(degree, kind, chi=1.0):
    sys_ = cached_system(degree)
    bo = make_boundary_operator(sys_, kind, chi, +1)
    return check_stability(decomposition(degree), bo.B)


def test_absorbing_wall_is_neutrally_stable(g20x):
    # pinning the odd moments reflects every mode with unit energy ratio
    B = np.hstack([np.eye(g20x.n_o), np.zeros((g20x.n_o, g20x.n_e))])
    rep = check_stability(decomposition(3), B)
    assert rep.verdict == "stable"
    assert rep.stable
    assert rep.kernel_ok
    assert rep.kernel_residual < 1e-12
    assert abs(rep.min_schur_eig) < 1e-12
    assert rep.details["n_schur_zero"] == g20x.n_o
    assert not rep.details["strictly_positive"]


@pytest.mark.parametrize("degree,kind,expected", [
    (2, "mbc", "stable"),
    (2, "obc", "stable"),
    (3, "mbc", "unstable"),
    (3, "obc", "stable"),
    (4, "mbc", "unstable"),
    (4, "obc", "stable"),
    (5, "mbc", "unstable"),
    (5, "obc", "stable"),
])
def test_verdict_table(degree, kind, expected):
    rep = report(degree, kind)
    assert rep.verdict == expected
    assert rep.stable == (expected == "stable")


@pytest.mark.parametrize("degree,name", [(6, "G84"), (7, "G120"), (8, "G165")])
def test_benchmark_degrees_verified_and_split(degree, name):
    # the planar theories the benchmark assembles and scans
    bs = cached_system(degree).basis
    assert bs.theory.name == name
    assert verify_orthogonality(bs).ok
    for axis in ("x", "y", "z"):
        assert verify_full_symmetry(bs, axis).ok, axis
    assert report(degree, "mbc").verdict == "unstable"
    assert report(degree, "obc").verdict == "stable"


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_obc_certificate_details(degree):
    rep = report(degree, "obc")
    assert rep.kernel_ok
    assert rep.kernel_residual < 1e-9
    scale = max(1.0, decomposition(degree).lam_plus.max())
    assert rep.min_schur_eig >= -1e-9 * scale
    assert rep.details["n_neg"] == cached_system(degree).n_o
    assert np.isfinite(rep.reflection_cond)


def test_raw_reflection_fails_kernel_condition(g20x):
    rep = report(3, "mbc")
    assert not rep.kernel_ok
    assert rep.kernel_residual > 0.1
    # its reflection form alone would pass; the standing modes break it
    assert rep.min_schur_eig > -1e-9


def test_raw_reflection_fails_energy_form_higher_up():
    rep = report(4, "mbc")
    assert rep.min_schur_eig < -0.15
    assert not rep.kernel_ok


def test_verdict_invariant_under_row_scaling(g20x):
    bo = make_boundary_operator(g20x, "obc", 1.0, +1)
    r1 = check_stability(decomposition(3), bo.B)
    r2 = check_stability(decomposition(3), 37.0 * bo.B)
    assert r1.verdict == r2.verdict
    assert r1.kernel_residual == pytest.approx(r2.kernel_residual, abs=1e-15)
    assert r1.min_schur_eig == pytest.approx(r2.min_schur_eig, abs=1e-12)


@pytest.mark.parametrize("degree", [6, 8])
def test_kernel_residual_independent_of_zero_space_basis(degree):
    # eigh returns an arbitrary basis of the degenerate zero eigenspace; the
    # residual must not depend on it
    dec = decomposition(degree)
    rng = np.random.default_rng(degree)
    rotation, _ = np.linalg.qr(rng.standard_normal((dec.n_zero, dec.n_zero)))
    rotated = dataclasses.replace(dec, X_zero=dec.X_zero @ rotation)
    B = make_boundary_operator(cached_system(degree), "mbc", 1.0, +1).B
    r1 = check_stability(dec, B).kernel_residual
    r2 = check_stability(rotated, B).kernel_residual
    assert r1 > 0.1
    assert r2 == pytest.approx(r1, rel=1e-12)


def test_schur_matrix_is_symmetric(g20x):
    rep = report(3, "obc")
    assert np.abs(rep.schur - rep.schur.T).max() == 0.0
    assert rep.schur.shape == (g20x.n_o, g20x.n_o)


def test_wrong_row_count_raises(g20x):
    B = np.zeros((g20x.n_o + 1, g20x.size))
    with pytest.raises(ValueError):
        check_stability(decomposition(3), B)


def test_duplicate_rows_detected_as_degenerate(g20x):
    bo = make_boundary_operator(g20x, "obc", 1.0, +1)
    B = bo.B.copy()
    B[1] = B[0]
    rep = check_stability(decomposition(3), B)
    assert rep.verdict == "degenerate"
    assert not rep.stable
    assert rep.schur.size == 0
    assert np.isnan(rep.min_schur_eig)


def direct_form(sys_, alpha) -> float:
    """Boundary quadratic form alpha^T S A^(n) alpha computed directly."""
    return float(alpha @ (sys_.S @ sys_.A_normal) @ alpha)


def test_quadratic_form_agrees_with_characteristics(g20x):
    dec = characteristic_decomposition(g20x)
    rng = np.random.default_rng(17)
    for _ in range(100):
        a = rng.standard_normal(g20x.size)
        direct = direct_form(g20x, a)
        via_chars = characteristic_form(dec, a)
        assert direct == pytest.approx(via_chars, rel=1e-10, abs=1e-10)


def test_quadratic_form_vanishes_on_standing_modes(g20x):
    dec = decomposition(3)
    kernel = dec.S_half_inv @ dec.X_zero
    for k in range(kernel.shape[1]):
        assert abs(direct_form(g20x, kernel[:, k])) < 1e-12


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_obc_verdict_matches_direct_energy_probe(degree):
    # cross-check the characteristic certificate against brute sampling of
    # consistent states for the wall with outward normal +x
    sys_ = cached_system(degree)
    theta = make_boundary_operator(sys_, "obc", 1.0, +1).gain()
    rng = np.random.default_rng(degree)
    worst = np.inf
    for _ in range(200):
        a_even = rng.standard_normal(sys_.n_e)
        alpha = np.concatenate([theta @ a_even, a_even])
        worst = min(worst, direct_form(sys_, alpha))
    assert worst >= -1e-9
    assert report(degree, "obc").stable


# the custom theories whose walls pass check-stability's structural checks
CUSTOM_WALLED = ("2,1", "3,1", "2,1,1", "2,2,1", "3,1,1", "3,2,1", "2,2,1,1",
                 "2,2,2,1", "3,2,1,1", "3,2,2,1")


def custom_system(m):
    counts = tuple(int(tok) for tok in m.split(","))
    theory = MomentTheory(max_rank=len(counts) - 1, radial_counts=counts)
    return assemble_system(theory, normal_axis="x", axes=("x",))


@pytest.mark.parametrize("kind", ["mbc", "obc"])
@pytest.mark.parametrize("case", [(d, "planar") for d in range(2, 9)]
                         + [(d, "full3d") for d in range(2, 5)] + list(CUSTOM_WALLED))
def test_wall_certificate_matches_check_at_every_chi(case, kind):
    sys_ = custom_system(case) if isinstance(case, str) else cached_system(*case)
    cert = wall_certificate(sys_, kind)
    assert len(cert.kernel_defect) == len(sys_.basis.parity_classes)
    for chi in (0.2, 0.6, 1.0):
        B = make_boundary_operator(sys_, kind, chi).B
        assert cert.verdict == check_stability(sys_.characteristic, B).verdict, chi


@pytest.mark.parametrize("degree", [3, 4, 5, 6, 7, 8])
def test_wall_certificate_parity_class_table(degree):
    # the raw accommodation wall fails on one tangential-parity class only:
    # the odd class (shear) at odd degree, the even class (heat conduction)
    # at even degree; the Onsager wall passes both
    sys_ = cached_system(degree)
    mbc, obc = wall_certificate(sys_, "mbc"), wall_certificate(sys_, "obc")
    failing = 1 if degree % 2 else 0
    assert mbc.class_stable == tuple(c != failing for c in range(2))
    assert mbc.kernel_defect[failing] > 0.1 and mbc.form_min[failing] < -1e-4
    assert mbc.verdict == "unstable"
    assert obc.class_stable == (True, True) and obc.stable
    assert max(obc.kernel_defect) < 1e-14
    # on the class it passes, the raw wall is the Onsager wall
    assert mbc.form_min[1 - failing] == pytest.approx(obc.form_min[1 - failing],
                                                      rel=1e-12, abs=1e-30)


def test_wall_certificate_rejects_odd_standing_modes():
    # --m 2,3: one standing mode has an odd part, so no wall [I | -theta]
    # is admissible and the check has fewer incoming characteristics than
    # boundary rows
    sys_ = custom_system("2,3")
    with pytest.raises(ValueError, match="odd part"):
        wall_certificate(sys_, "mbc")
    with pytest.raises(ValueError, match="boundary rows"):
        check_stability(sys_.characteristic, make_boundary_operator(sys_, "mbc").B)


@pytest.mark.parametrize("degree", [3, 4])
def test_wall_certificate_form_decides_where_kernel_holds(degree, monkeypatch):
    # the Onsager gain with its sign flipped still annihilates the standing
    # modes, but its wall form turns negative: the certificate and the check
    # both reject it on the form alone
    sys_ = cached_system(degree)
    theta = sys_.obc[0]
    monkeypatch.setattr("momentbc.stability._held_gain", lambda sys, kind: (-theta, {}))
    cert = wall_certificate(sys_, "obc")
    assert max(cert.kernel_defect) < 1e-14
    assert min(cert.form_min) < -0.1 and cert.verdict == "unstable"
    for chi in (0.2, 1.0):
        B = np.hstack([np.eye(sys_.n_o), 2.0 * (chi / (2.0 - chi)) * theta])
        rep = check_stability(sys_.characteristic, B)
        assert rep.kernel_ok and rep.verdict == "unstable", chi
