"""Acceptance gate: one test per release criterion, stated tolerances only.

Run `python3 -m pytest tests/test_acceptance.py -v` for the per-criterion
pass/fail lines.  Each test prints a one-line summary with the measured
margins (visible with -s or on failure).
"""
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from momentbc.basis import build_basis_set, verify_orthogonality
from momentbc.boundary import make_boundary_operator
from momentbc.channel import (SOURCE_AMPLITUDE, ChannelConfig, solve_steady,
                              time_march_energy)
from momentbc.stability import check_stability
from momentbc.system import (assemble_system, characteristic_decomposition,
                             grad_theory)

_SYS = {}


def planar_system(degree, normal="x", axes=("x", "y", "z")):
    key = (degree, normal, tuple(axes))
    if key not in _SYS:
        _SYS[key] = assemble_system(grad_theory(degree, "planar"),
                                    normal_axis=normal, axes=axes)
    return _SYS[key]


@contextmanager
def budget(seconds):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, f"runtime budget exceeded: {elapsed:.2f}s >= {seconds}s"


# 13x13 entropy Gram of the 20-moment planar theory, frozen from a hand
# computation over ordered tensor components (odd-in-x moments first).
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

DEGREES = (2, 3, 4, 5)          # 10- through 56-moment theories
CHANNEL_DEGREES = (3, 4, 5)     # theories carrying a heat-flux moment


def test_criterion_01_golden_symmetrizer():
    with budget(1.0):
        sys_ = assemble_system(grad_theory(3, "planar"))
        dev = np.abs(sys_.S - GOLDEN_S13).max()
    assert dev < 1e-12
    # frozen sub-blocks: scalars 1/2, rank 2 [[1, .5], [.5, 1]] plus lone 1,
    # rank 3 [[2, 1.5], [1.5, 3]] and its mirrored pair
    bs = sys_.basis
    assert sys_.S[bs.index_of(0, 0, ()), bs.index_of(0, 0, ())] == 0.5
    assert sys_.S[bs.index_of(2, 0, ("x", "x")), bs.index_of(2, 0, ("y", "y"))] == 0.5
    assert sys_.S[bs.index_of(3, 0, ("x", "x", "y")),
                  bs.index_of(3, 0, ("y", "y", "y"))] == 1.5
    print(f"criterion 01 golden symmetrizer: PASS (max dev {dev:.1e})")


def test_criterion_02_orthogonality():
    with budget(30.0):
        worst = 0.0
        for degree in DEGREES:
            for reduction in ("planar", "full3d"):
                rep = verify_orthogonality(
                    build_basis_set(grad_theory(degree, reduction)))
                worst = max(worst, rep.max_deviation)
                assert rep.max_deviation < 1e-12, (degree, reduction)
    print(f"criterion 02 orthogonality: PASS (worst |M - I| {worst:.1e})")


def test_criterion_03_symmetric_hyperbolicity():
    with budget(30.0):
        worst = 0.0
        for degree in DEGREES:
            sys_ = planar_system(degree)
            assert np.linalg.eigvalsh(sys_.S).min() > 0.0
            for axis in ("x", "y", "z"):
                SA = sys_.S @ sys_.A[axis]
                asym = np.abs(SA - SA.T).max()
                worst = max(worst, asym)
                assert asym < 1e-10, (degree, axis)
    print(f"criterion 03 symmetric hyperbolicity: PASS (worst asym {worst:.1e})")


def test_criterion_04_flux_structure():
    for degree in DEGREES:
        sys_ = planar_system(degree)
        A = sys_.A_normal
        n_o = sys_.n_o
        assert np.all(A[:n_o, :n_o] == 0.0), degree
        assert np.all(A[n_o:, n_o:] == 0.0), degree
        _, sv, vt = np.linalg.svd(A)
        null_dim = int(np.sum(sv < 1e-10))
        kernel = vt[len(sv) - null_dim:].T
        assert np.abs(kernel[:n_o, :]).max() < 1e-10, degree
        dec = characteristic_decomposition(sys_)
        assert dec.n_neg == n_o, degree
    print("criterion 04 flux structure: PASS "
          "(zero diagonal blocks, even-sided kernel, n_neg = n_o)")


def test_criterion_05_symmetric_response_matrix():
    worst_asym, worst_eig = 0.0, 0.0
    for degree in DEGREES:
        sys_ = planar_system(degree)
        # the response at full accommodation, L = 2 sym(K), and its report
        Aoe = sys_.flux_odd_even
        L = 2.0 * (sys_.mbc[0][:, :sys_.n_o] @ np.linalg.inv(Aoe[:, :sys_.n_o]))
        L = 0.5 * (L + L.T)
        diag = make_boundary_operator(sys_, "obc", chi=1.0).diagnostics
        assert np.array_equal(np.linalg.eigvalsh(L)[[0, -1]],
                              [diag["min_eig_L"], diag["max_eig_L"]]), degree
        norm = max(diag["max_eig_L"], 1e-30)
        assert diag["asymmetry"] < 1e-9 * max(np.abs(L).max(), 1.0), degree
        assert diag["min_eig_L"] >= -1e-9 * norm, degree
        worst_asym = max(worst_asym, diag["asymmetry"])
        worst_eig = min(worst_eig, diag["min_eig_L"] / norm)
    print(f"criterion 05 symmetric response: PASS "
          f"(worst asym {worst_asym:.1e}, worst rel eig {worst_eig:.1e})")


def test_criterion_06_stability_verdicts():
    with budget(60.0):
        verdicts = {}
        for degree in DEGREES:
            sys_ = planar_system(degree)
            dec = characteristic_decomposition(sys_)
            for kind in ("mbc", "obc"):
                bo = make_boundary_operator(sys_, kind, chi=1.0, sign=+1)
                verdicts[(degree, kind)] = check_stability(dec, bo.B).verdict
        for degree in DEGREES:
            assert verdicts[(degree, "obc")] == "stable", degree
        # raw accommodation must be flagged unstable; the 10-moment case is
        # exempt here because its two wall operators coincide (see the
        # strict expected failure below)
        for degree in (3, 4, 5):
            assert verdicts[(degree, "mbc")] == "unstable", degree
    print(f"criterion 06 stability verdicts: PASS ({verdicts})")


@pytest.mark.xfail(strict=True, reason=(
    "the smallest planar family's raw accommodation operator coincides "
    "exactly with the energy-stable response operator, so no admissibility "
    "check can flag it unstable; documented deviation"))
def test_criterion_06_smallest_theory_raw_wall_flagged():
    sys_ = planar_system(2)
    dec = characteristic_decomposition(sys_)
    bo = make_boundary_operator(sys_, "mbc", chi=1.0, sign=+1)
    assert check_stability(dec, bo.B).verdict == "unstable"


@pytest.mark.parametrize("degree", CHANNEL_DEGREES)
def test_criterion_07_channel_physics(degree):
    with budget(60.0):
        cfg = ChannelConfig(theory=grad_theory(degree, "planar"),
                            kn=0.3, bc_kind="obc", n_grid=512)
        sol = solve_steady(cfg)
    d = sol.diagnostics
    assert d["max_v_y"] < 1e-8
    target = SOURCE_AMPLITUDE / 12.0
    assert d["flux_balance_target"] == pytest.approx(target, rel=1e-12)
    assert abs(d["flux_balance"] - target) < 1e-6
    assert d["symmetry_error"] < 1e-6
    jump = sol.fields["theta"][0] - 1.0
    assert abs(jump) > 1e-3
    assert np.abs(sol.fields["sigma_yy"]).max() > 1e-3
    print(f"criterion 07 channel physics [{cfg.theory.name}]: PASS "
          f"(v_y {d['max_v_y']:.1e}, flux err "
          f"{abs(d['flux_balance'] - target):.1e}, sym {d['symmetry_error']:.1e}, "
          f"jump {jump:+.4f}, max sigma {np.abs(sol.fields['sigma_yy']).max():.3e})")


def test_criterion_07_theory_without_heat_flux_is_rejected():
    # the 10-moment theory cannot balance the heating; the solver must say
    # so rather than return garbage
    with pytest.raises(RuntimeError):
        solve_steady(ChannelConfig(theory=grad_theory(2, "planar"), n_grid=64))
    print("criterion 07 guard: PASS (10-moment channel solve raises)")


def test_criterion_08_grid_convergence():
    theory = grad_theory(3, "planar")
    sys_ = assemble_system(theory, normal_axis="y", axes=("y",))
    fine = solve_steady(ChannelConfig(theory=theory, n_grid=1024), sys=sys_)
    spline = CubicSpline(fine.y, fine.fields["theta"])
    errors = []
    for n in (64, 128, 256):
        sol = solve_steady(ChannelConfig(theory=theory, n_grid=n), sys=sys_)
        errors.append(np.abs(sol.fields["theta"] - spline(sol.y)).max())
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9, (errors, orders)
    print(f"criterion 08 grid convergence: PASS (errors {errors}, orders {orders})")


def test_criterion_09_energy_boundedness():
    theory = grad_theory(3, "planar")
    sys_ = assemble_system(theory, normal_axis="y", axes=("y",))
    dec = characteristic_decomposition(sys_)
    crossings = 10.0 / dec.max_speed
    cfg = ChannelConfig(theory=theory, n_grid=128, bc_kind="obc",
                        wall_temp=0.0, source_amplitude=0.0)
    res = time_march_energy(cfg, t_final=crossings, cfl=0.4,
                            init="random", seed=7, sys=sys_)
    assert not res.blowup
    rel_growth = res.max_energy_growth / res.energy[0]
    assert rel_growth <= 1e-6

    # the driven march must settle onto the steady solve
    cfg_driven = ChannelConfig(theory=theory, n_grid=128, bc_kind="obc")
    steady = solve_steady(cfg_driven, sys=sys_)
    marched = time_march_energy(cfg_driven, t_final=60.0, cfl=0.4,
                                init="zero", sys=sys_)
    assert not marched.blowup
    diffs = {name: float(np.abs(marched.fields[name] - steady.fields[name]).max())
             for name in ("theta", "sigma_yy", "q_y")}
    assert max(diffs.values()) < 1e-4, diffs
    print(f"criterion 09 energy boundedness: PASS "
          f"(relative growth {rel_growth:.1e}, steady match {diffs})")


def test_criterion_10_moment_counting():
    counts = [grad_theory(lam, "full3d").full3d_count for lam in range(2, 8)]
    assert counts == [10, 20, 35, 56, 84, 120]
    names = [grad_theory(lam, "full3d").name for lam in range(2, 8)]
    assert names == ["G10", "G20", "G35", "G56", "G84", "G120"]
    for lam, count in zip(range(2, 8), counts):
        assert count == (lam + 1) * (lam + 2) * (lam + 3) // 6
    print(f"criterion 10 moment counting: PASS ({dict(zip(names, counts))})")
