"""End-to-end CLI coverage; everything in-process except one script check."""
import csv
import itertools
import json
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import momentbc
from momentbc.basis import build_basis_set
from momentbc.cli import FLOAT_FMT, _write_csv, build_parser, main, parse_args
from momentbc.stability import WallCertificate
from momentbc.system import theory_from_name

from conftest import cached_system

PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def run_cli(capsys, *argv):
    # argparse rejects a flag by SystemExit; its code is the process's exit code
    try:
        rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0, err
    return json.loads(out)


def load_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


def test_version(capsys):
    rc, out, _ = run_cli(capsys, "--version")
    assert rc == 0
    assert out.strip() == f"momentbc {momentbc.__version__}"
    rep = run_json(capsys, "--version", "--json")
    assert rep == {"name": "momentbc", "version": momentbc.__version__}


def test_assemble_report(capsys):
    rep = run_json(capsys, "assemble", "--theory", "G20")
    assert rep["version"] == momentbc.__version__
    assert rep["theory"] == "G20"
    assert rep["moments"] == 13
    assert rep["n_odd"] == 5
    assert rep["n_even"] == 8
    assert rep["char_counts"] == {"neg": 5, "zero": 3, "pos": 5}
    assert rep["checks"]["orthogonality_defect"] < 1e-12
    assert rep["checks"]["symmetrizer_min_eig"] > 0
    assert max(rep["checks"]["flux_asymmetry"].values()) < 1e-10
    assert rep["config"]["subcommand"] == "assemble"
    assert len(rep["names"]) == 13


def test_assemble_custom_matches_named(capsys):
    rep = run_json(capsys, "assemble", "--theory", "custom", "--m", "2,2,1,1")
    assert rep["theory"] == "G20"
    assert rep["moments"] == 13


def test_assemble_dump_matrix(capsys, tmp_path):
    out = tmp_path / "s.csv"
    rc, _, _ = run_cli(capsys, "assemble", "--theory", "G20",
                       "--dump", "s-matrix", "--out", str(out))
    assert rc == 0
    S = np.loadtxt(out, delimiter=",")
    assert np.abs(S - cached_system(3).S).max() == 0.0
    first = out.read_bytes()
    run_cli(capsys, "assemble", "--theory", "G20",
            "--dump", "s-matrix", "--out", str(out))
    assert out.read_bytes() == first


def test_assemble_dump_to_stdout(capsys):
    rc, out, _ = run_cli(capsys, "assemble", "--theory", "G20", "--dump", "p-bgk")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 13
    P = np.array([[float(tok) for tok in line.split(",")] for line in lines])
    assert np.abs(P - cached_system(3).P_bgk).max() == 0.0


@pytest.mark.parametrize("argv", [
    ("assemble",),
    ("assemble", "--theory", "G999"),
    ("assemble", "--theory", "custom"),
    ("assemble", "--theory", "custom", "--nd", "2", "--m", "1,1,1"),
    ("assemble", "--theory", "custom", "--m", "2,x"),
    ("assemble", "--theory", "custom", "--m", "0,1"),
    ("check-stability", "--theory", "G20", "--scan-chi", "0.5:1.0"),
    ("check-stability", "--theory", "G20", "--scan-chi", "0.5:1.0:0"),
    ("assemble", "--theory", "G20", "--m", "9,9"),
    ("check-stability", "--theory", "G20", "--bc", "mbc", "--scan-chi", "0.5:1.0:3"),
    ("solve-channel", "--theory", "G20", "--kn", "-1"),
    ("solve-channel", "--theory", "G20", "--kn", "0"),
    ("solve-channel", "--theory", "G20", "--kn", "inf"),
    ("solve-channel", "--theory", "G20", "--grid", "0"),
    ("solve-channel", "--theory", "G20", "--chi", "0"),
    ("solve-channel", "--theory", "G20", "--reference", "G20,G999"),
    ("check-stability", "--theory", "G20", "--chi", "1.5"),
    ("check-stability", "--theory", "G20", "--scan-chi", "0:1:3"),
    ("energy-march", "--theory", "G20", "--cfl", "-1"),
    ("energy-march", "--theory", "G20", "--t-final", "0"),
    ("energy-march", "--theory", "G20", "--seed", "-1"),
    ("assemble", "--theory", "G20", "--normal-axis", "z"),
    # a dict stands for a --config file holding it
    ("solve-channel", {"theory": "G20", "frobnicate": 1}),
    ("solve-channel", {"theory": "G20", "kn": 0}),
    ("energy-march", {"theory": "G20", "grid": False}),
    ("compare", "a.csv", "b.csv", {"theory": "G20"}),
    # --chi is checked even when --scan-chi gives the samples
    ("check-stability", "--theory", "G20", "--scan-chi", "0.2:1.0:2", "--chi", "5"),
    # files the command cannot open: one error line, not a traceback
    ("assemble", "--theory", "G20", "--dump", "s-matrix", "--out", "missing-dir/S.csv"),
    ("solve-channel", "--theory", "G20", "--grid", "16", "--out", "missing-dir/chan.csv"),
    ("energy-march", "--theory", "G20", "--grid", "16", "--t-final", "0.01",
     "--out", "missing-dir/trace.csv"),
    ("compare", "missing-dir/left.csv", "missing-dir/right.csv"),
])
def test_usage_errors_exit_one(capsys, tmp_path, argv):
    cfg = tmp_path / "cfg.json"
    args = []
    for arg in argv:
        if isinstance(arg, dict):
            cfg.write_text(json.dumps(arg))
            arg = f"--config={cfg}"
        args.append(arg)
    rc, _, err = run_cli(capsys, *args)
    assert rc == 1
    assert "error" in err


# custom theories of max rank <= 3 and radial counts 1-3 without a wall
# temperature (first count 1) or normal velocity (rank 0 only): 39 + 3
WALLLESS = [m for m in (",".join(map(str, c)) for r in range(4)
                        for c in itertools.product((1, 2, 3), repeat=r + 1))
            if m.startswith("1") or "," not in m]


def test_wallless_theories_fail_in_one_line(capsys):
    assert len(WALLLESS) == 42
    commands = (("check-stability",), ("solve-channel", "--grid", "16"),
                ("energy-march", "--grid", "16", "--t-final", "0.01"))
    for m in WALLLESS:
        for command in commands:
            rc, out, err = run_cli(capsys, *command, "--theory", "custom", "--m", m)
            assert (rc, out) == (1, ""), (m, command)
            assert err.startswith("momentbc: error: ") and err.count("\n") == 1, err
        # assembling such a theory needs no wall
        assert run_json(capsys, "assemble", "--theory", "custom", "--m", m)["theory"]


# the other 78 custom theories of max rank <= 3 and radial counts 1-3: each
# has a wall temperature and a normal velocity
WALLED = [m for m in (",".join(map(str, c)) for r in range(1, 4)
                      for c in itertools.product((1, 2, 3), repeat=r + 1))
          if not m.startswith("1")]


def test_walled_theories_solve_or_fail_in_one_line(capsys):
    # the steady solve runs on the tangentially even class, so a singular
    # block of a class that carries no data stops nothing; whatever fails
    # is a numerical failure in one line, and every solution meets the
    # solver's residual check
    assert len(WALLED) == 78
    solved = {"obc": 0, "mbc": 0}
    for m in WALLED:
        for bc in solved:
            rc, out, err = run_cli(capsys, "solve-channel", "--theory", "custom",
                                   "--m", m, "--bc", bc, "--grid", "16")
            if rc == 0:
                d = json.loads(out)["diagnostics"]
                assert d["residual"] <= 1e-8 * d["flux_balance_target"], (m, bc)
                solved[bc] += 1
            else:
                assert (rc, out) == (2, ""), (m, bc)
                assert err.startswith("momentbc: numerical verification failure: ")
                assert err.count("\n") == 1, err
    assert solved == {"obc": 20, "mbc": 52}


def test_unknown_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_help_lists_every_subcommand(capsys):
    rc, out, _ = run_cli(capsys, "--help")
    assert rc == 0
    for name in ("assemble", "check-stability", "solve-channel", "compare",
                 "energy-march"):
        assert f"    {name} " in out
        # a command line builds its own subcommand's options only; its help
        # must read as from the parser of every subcommand
        rc, own, _ = run_cli(capsys, name, "--help")
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([name, "--help"])
        assert rc == exc.value.code == 0
        assert own == capsys.readouterr().out
        assert "--config" in own
    # the top-level usage of an error still names every subcommand
    rc, _, err = run_cli(capsys, "assemble", "--theory", "G20", "--bogus")
    assert rc == 1
    assert err.startswith(build_parser().format_usage())


def test_check_stability_single_kind(capsys):
    rep = run_json(capsys, "check-stability", "--theory", "G20", "--bc", "mbc")
    assert rep["verdict"] == "unstable"
    assert rep["stable"] is False
    assert rep["kernel_ok"] is False
    assert list(rep["wall_form_min"]) == ["mbc"] and rep["wall_form_min"]["mbc"] < 0.0
    # a raw wall alone never builds the Onsager gain, whose head block is
    # singular for this theory
    run_json(capsys, "check-stability", "--theory", "custom", "--m", "2,2", "--bc", "mbc")
    rc, _, err = run_cli(capsys, "check-stability", "--theory", "custom", "--m", "2,2")
    assert rc == 2 and "odd-even flux head block near singular" in err
    rep = run_json(capsys, "check-stability", "--theory", "G20", "--bc", "obc")
    assert rep["verdict"] == "stable"
    assert rep["kernel_residual"] < 1e-9
    assert rep["details"]["n_neg"] == 5


def test_check_stability_combined(capsys):
    rep = run_json(capsys, "check-stability", "--theory", "G20")
    assert rep["mbc_stable"] is False
    assert rep["obc_stable"] is True
    assert rep["min_eig_L"] >= -1e-9
    assert rep["kernel_residuals"]["mbc"] > 0.1
    assert rep["kernel_residuals"]["obc"] < 1e-9
    assert rep["wall_form_min"]["mbc"] < 0.0 <= rep["wall_form_min"]["obc"] + 1e-12
    # with no stress moment both wall forms vanish, and read zero
    rep = run_json(capsys, "check-stability", "--theory", "custom", "--m", "2,1")
    assert rep["wall_form_min"] == {"mbc": 0.0, "obc": 0.0}


def test_check_stability_scan(capsys):
    rep = run_json(capsys, "check-stability", "--theory", "G20",
                   "--scan-chi", "0.5:1.0:3")
    scan = rep["scan"]
    assert len(scan) == 3
    assert set(rep["wall_form_min"]) == {"mbc", "obc"}  # once, not per chi
    assert set(rep["wall_certificate"]) == {"mbc", "obc"}
    assert [s["chi"] for s in scan] == [0.5, 0.75, 1.0]
    assert all(s["obc_stable"] for s in scan)
    # each chi reads the chi-free certificates: the verdicts are each chi's
    # own check, and the response's eigenvalue its own scaling
    for entry in scan:
        for kind in ("mbc", "obc"):
            single = run_json(capsys, "check-stability", "--theory", "G20",
                              "--bc", kind, "--chi", str(entry["chi"]))
            assert entry[f"{kind}_stable"] == single["stable"], (entry["chi"], kind)
        assert entry["min_eig_L"] == single["obc_diagnostics"]["min_eig_L"]
    # the Schur readings are one check per kind, at full accommodation
    combined = run_json(capsys, "check-stability", "--theory", "G20", "--chi", "1.0")
    for key in ("kernel_residuals", "min_schur_eig"):
        assert rep["checked"][key] == combined[key], key


@pytest.mark.parametrize("theory", ["G20", "G35", "G165"])
def test_check_stability_verdicts_match_certificate_at_any_chi(capsys, theory):
    # the kernel residual is relative to the rows' even block, so the single
    # and combined checks read the chi-free certificate's verdict even where
    # the wall's gain 2 beta is tiny
    for chi in ("1e-9", "1e-4", "1"):
        combined = run_json(capsys, "check-stability", "--theory", theory, "--chi", chi)
        for kind in ("mbc", "obc"):
            cert = combined["wall_certificate"][kind]["verdict"]
            assert combined[f"{kind}_stable"] == (cert == "stable"), (chi, kind)
            single = run_json(capsys, "check-stability", "--theory", theory,
                              "--bc", kind, "--chi", chi)
            assert single["verdict"] == cert, (chi, kind)


def test_check_stability_scan_disagreement_exits_two(capsys, monkeypatch):
    # a certificate that contradicts the check at chi = 1 is a numerical failure
    monkeypatch.setattr("momentbc.cli.wall_certificate", lambda sys_, kind:
                        WallCertificate(kind=kind, kernel_defect=(1.0,), form_min=(0.0,)))
    rc, out, err = run_cli(capsys, "check-stability", "--theory", "G20",
                           "--scan-chi", "0.5:1.0:3")
    assert (rc, out) == (2, "")
    assert err.startswith("momentbc: numerical verification failure: obc ")
    assert err.count("\n") == 1


def test_check_stability_obc_diagnostics_only_for_obc(capsys):
    rep = run_json(capsys, "check-stability", "--theory", "G20", "--bc", "mbc")
    assert "obc_diagnostics" not in rep
    assert list(rep["wall_certificate"]) == ["mbc"]
    assert rep["wall_certificate"]["mbc"]["verdict"] == rep["verdict"]
    rep = run_json(capsys, "check-stability", "--theory", "G20", "--bc", "obc")
    assert set(rep["obc_diagnostics"]) == {"asymmetry", "cond_Aoe_hat",
                                           "min_eig_L", "max_eig_L"}
    assert list(rep["wall_certificate"]) == ["obc"]


def test_solve_channel_csv(capsys, tmp_path):
    out = tmp_path / "chan.csv"
    rep = run_json(capsys, "solve-channel", "--theory", "G20",
                   "--grid", "64", "--out", str(out))
    assert rep["diagnostics"]["max_v_y"] < 1e-6
    for key in ("operator_s", "solve_s"):
        t = rep["diagnostics"]["timings"][key]
        assert np.isfinite(t) and t > 0.0
    header, data = load_csv(out)
    assert header[:6] == ["y", "rho", "v_y", "theta", "sigma_yy", "q_y"]
    assert len(header) == 6 + 13
    assert data.shape == (64, 19)
    theta = data[:, header.index("theta")]
    assert np.abs(theta - theta[::-1]).max() < 1e-9
    assert np.abs(data[:, header.index("v_y")]).max() < 1e-6
    # rerun is byte identical
    first = out.read_bytes()
    run_json(capsys, "solve-channel", "--theory", "G20",
             "--grid", "64", "--out", str(out))
    assert out.read_bytes() == first


def test_solve_channel_assembles_no_whole_system(capsys, tmp_path, monkeypatch):
    # the collocation path assembles the heated class alone; its CSV still
    # names every moment of the whole basis, in basis order
    def whole(*args, **kw):
        raise AssertionError("whole system assembled")
    monkeypatch.setattr("momentbc.cli.assemble_system", whole)
    out = tmp_path / "chan.csv"
    rc, _, err = run_cli(capsys, "solve-channel", "--theory", "G20",
                         "--grid", "32", "--out", str(out))
    assert rc == 0, err
    header, data = load_csv(out)
    names = build_basis_set(theory_from_name("G20"), normal_axis="y").names()
    assert header[6:] == names
    assert data.shape == (32, 6 + 13)


def test_solve_channel_reference_fields_only(capsys, tmp_path):
    # a one-theory reference is that theory's modal solution
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    ref = tmp_path / "ref.csv"
    run_json(capsys, "solve-channel", "--theory", "G20", "--grid", "48",
             "--reference", "G20", "--out", str(a))
    run_json(capsys, "solve-channel", "--theory", "G20", "--grid", "48",
             "--reference", "G35", "--out", str(b))
    rep = run_json(capsys, "solve-channel", "--theory", "G20", "--grid", "48",
                   "--reference", "G20,G35", "--out", str(ref))
    # the report names the theories solved, not --theory
    assert rep["theory"] == "G20,G35"
    assert rep["reduction"] == "planar"
    assert rep["diagnostics"]["theories"] == ["G20", "G35"]
    for comp in rep["diagnostics"]["component_diagnostics"]:
        assert all(np.isfinite(t) and t > 0.0 for t in comp["timings"].values())
        assert sorted(comp["timings"]) == ["operator_s", "solve_s"]
        assert comp["amplitude_cond"] < 1e5
        assert comp["residual"] < 1e-12
        assert comp["heat_flux_defect"] < 1e-12
        assert "gauge_multiplier" not in comp
    header, data = load_csv(ref)
    assert len(header) == 6
    ha, da = load_csv(a)
    hb, db = load_csv(b)
    for col in ("theta", "sigma_yy"):
        mean = 0.5 * (da[:, ha.index(col)] + db[:, hb.index(col)])
        assert np.abs(data[:, header.index(col)] - mean).max() < 1e-12


def test_compare_reports_errors(capsys, tmp_path):
    left = tmp_path / "left.csv"
    right = tmp_path / "right.csv"
    run_json(capsys, "solve-channel", "--theory", "G20", "--grid", "48",
             "--out", str(left))
    run_json(capsys, "solve-channel", "--theory", "G35", "--grid", "48",
             "--out", str(right))
    joined = tmp_path / "joined.csv"
    plot = tmp_path / "plot.gp"
    rep = run_json(capsys, "compare", str(left), str(right),
                   "--out", str(joined), "--plot", str(plot))
    header, data = load_csv(joined)
    assert header == ["y", "theta_left", "theta_right",
                      "sigma_yy_left", "sigma_yy_right", "e_theta", "e_sigma"]
    e_theta = np.abs(data[:, 1] - data[:, 2])
    assert np.abs(data[:, 5] - e_theta).max() < 1e-15
    assert rep["max_e_theta"] == pytest.approx(data[:, 5].max())
    assert rep["max_e_theta"] > 0.001
    script = plot.read_text()
    assert "multiplot" in script
    assert str(joined) in script


@pytest.mark.parametrize("corrupt, message", [
    (None, "inputs live on different grids"),
    (lambda cells: cells[:-1], "want a header over equal-length rows"),
    (lambda cells: ["x"] + cells[1:], "could not convert string to float: 'x'"),
], ids=["different-grids", "ragged-row", "non-numeric-cell"])
def test_compare_grid_mismatch_exits_one(capsys, tmp_path, corrupt, message):
    left = tmp_path / "left.csv"
    right = tmp_path / "right.csv"
    run_json(capsys, "solve-channel", "--theory", "G20", "--grid", "48",
             "--out", str(left))
    if corrupt is None:
        run_json(capsys, "solve-channel", "--theory", "G20", "--grid", "32",
                 "--out", str(right))
    else:
        # the left file with one data row's cells corrupted
        lines = left.read_text().splitlines()
        lines[5] = ",".join(corrupt(lines[5].split(",")))
        right.write_text("\n".join(lines) + "\n")
    rc, _, err = run_cli(capsys, "compare", str(left), str(right))
    assert rc == 1
    assert message in err
    if corrupt is not None:
        assert f"malformed CSV {right}" in err


def test_energy_march_trace(capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    rep = run_json(capsys, "energy-march", "--theory", "G20", "--homogeneous",
                   "--init", "random", "--grid", "32", "--t-final", "0.5",
                   "--out", str(trace))
    assert rep["blowup"] is False
    assert rep["relative_growth"] <= 1e-6
    assert rep["energy_final"] < rep["energy_initial"]
    assert rep["config"]["homogeneous"] is True
    for key in ("operator_s", "march_s", "step_us"):
        assert np.isfinite(rep["timings"][key]) and rep["timings"][key] > 0.0
    # the tangential-parity classes (x even, x odd) and the round-off dropped
    # between them
    assert rep["classes"] == [8, 5]
    assert 0.0 <= rep["health"]["decoupling_defect"] <= 1e-14
    header, data = load_csv(trace)
    assert header == ["t", "energy"]
    assert data[0, 0] == 0.0
    assert data[-1, 0] == pytest.approx(0.5)
    assert np.all(np.diff(data[:, 1]) <= 1e-9)


def csv_header(shape):
    """The header of each kind of CSV the CLI writes."""
    if shape == "trace":
        return ["t", "energy"]
    if shape == "compare":
        return ["y", "theta_left", "theta_right", "sigma_yy_left", "sigma_yy_right",
                "e_theta", "e_sigma"]
    names = build_basis_set(theory_from_name("G120"), normal_axis="y").names()
    return ["y", "rho", "v_y", "theta", "sigma_yy", "q_y", *names]


CSV_SHAPES = ("trace", "compare", "channel")


@pytest.mark.parametrize("shape", CSV_SHAPES)
def test_trace_csv_matches_csv_writer(tmp_path, shape):
    header = csv_header(shape)
    rng = np.random.default_rng(6)
    columns = [np.linspace(0.0, 10.0, 300)]
    for _ in header[1:]:
        columns.append(np.r_[rng.standard_normal(295)
                             * 10.0 ** rng.integers(-300, 300, 295),
                             0.0, -0.0, np.inf, np.nan, 1e-310])
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([FLOAT_FMT % v for v in row])
    out = tmp_path / "out.csv"
    _write_csv(str(out), header, columns)
    assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("shape", CSV_SHAPES)
def test_trace_csv_blocks_match_row_by_row(tmp_path, shape):
    # 2,500 rows: two whole 1,024-row blocks of the writer and a partial one
    header = csv_header(shape)
    rng = np.random.default_rng(7)
    columns = [np.linspace(0.0, 10.0, 2500)]
    columns += [rng.standard_normal(2500) for _ in header[1:]]
    out = tmp_path / "out.csv"
    _write_csv(str(out), header, columns)
    row = ",".join([FLOAT_FMT] * len(header)) + "\r\n"
    rows = (row % values for values in zip(*(c.tolist() for c in columns)))
    assert out.read_bytes() == (",".join(header) + "\r\n" + "".join(rows)).encode()


def test_energy_march_reports_blowup_with_exit_zero(capsys):
    rep = run_json(capsys, "energy-march", "--theory", "G20", "--grid", "32",
                   "--t-final", "0.5", "--cfl", "5.0", "--init", "random")
    assert rep["blowup"] is True


@pytest.mark.parametrize("grid", [32, 64])
def test_solve_channel_underresolved_theory_exits_two(capsys, grid):
    # the pivoting decides whether the solve yields non-finite values or a
    # large residual; the cause is reported either way
    rc, _, err = run_cli(capsys, "solve-channel", "--theory", "G10",
                         "--grid", str(grid))
    assert rc == 2
    assert "numerical verification failure" in err
    assert "fewer than 20 moments" in err


def test_solve_channel_underresolved_reference_exits_two(capsys):
    rc, _, err = run_cli(capsys, "solve-channel", "--theory", "G20", "--grid", "32",
                         "--reference", "G10,G20")
    assert rc == 2
    assert "numerical verification failure" in err
    assert "fewer than 20 moments" in err


def test_solve_channel_reference_holds_at_large_kn(capsys):
    # the modal reference keeps round-off accuracy in near-free flow
    rep = run_json(capsys, "solve-channel", "--theory", "G20", "--grid", "32",
                   "--kn", "10000", "--reference", "G56,G120")
    for comp in rep["diagnostics"]["component_diagnostics"]:
        assert comp["residual"] < 1e-12


def test_solve_channel_full3d_reference(capsys):
    # full3d G84 and G120 have repeated real modes, which stay real
    rep = run_json(capsys, "solve-channel", "--theory", "G56", "--reduction", "full3d",
                   "--grid", "128", "--reference", "G56,G84,G120")
    assert rep["theory"] == "G56,G84,G120"
    assert rep["reduction"] == "full3d"
    for comp in rep["diagnostics"]["component_diagnostics"]:
        assert comp["residual"] < 1e-11
        assert comp["modes"]["polynomial"] == 4


def test_outdir_env_resolves_relative_paths(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MOMENTBC_OUTDIR", str(tmp_path))
    run_cli(capsys, "assemble", "--theory", "G20",
            "--dump", "s-matrix", "--out", "rel.csv")
    assert (tmp_path / "rel.csv").exists()


def test_outdir_env_reports_paths_as_given(capsys, tmp_path, monkeypatch):
    # every command writes a relative --out under MOMENTBC_OUTDIR and
    # reports it as given
    outdir = tmp_path / "outdir"
    outdir.mkdir()
    monkeypatch.setenv("MOMENTBC_OUTDIR", str(outdir))
    monkeypatch.chdir(tmp_path)
    for name, theory in (("left.csv", "G20"), ("right.csv", "G35")):
        rep = run_json(capsys, "solve-channel", "--theory", theory, "--grid", "32",
                       "--out", name)
        assert rep["out"] == name
    rep = run_json(capsys, "energy-march", "--theory", "G20", "--grid", "32",
                   "--t-final", "0.1", "--out", "trace.csv")
    assert rep["out"] == "trace.csv"
    rep = run_json(capsys, "compare", "left.csv", "right.csv",
                   "--out", "joined.csv", "--plot", "plot.gp")
    assert (rep["out"], rep["plot"]) == ("joined.csv", "plot.gp")
    written = {"left.csv", "right.csv", "trace.csv", "joined.csv", "plot.gp"}
    assert {p.name for p in outdir.iterdir()} == written
    assert {p.name for p in tmp_path.iterdir()} == {"outdir"}
    # the plot script names the CSV where it was written
    assert str(outdir / "joined.csv") in (outdir / "plot.gp").read_text()


def test_config_file_defaults_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theory": "G20", "grid": 32}))
    out = tmp_path / "a.csv"
    rep = run_json(capsys, "solve-channel", "--config", str(cfg),
                   "--out", str(out))
    assert rep["config"]["grid"] == 32
    _, data = load_csv(out)
    assert data.shape[0] == 32
    rep = run_json(capsys, "solve-channel", "--config", str(cfg),
                   "--grid", "24", "--out", str(out))
    assert rep["config"]["grid"] == 24
    _, data = load_csv(out)
    assert data.shape[0] == 24


def test_config_echo_is_the_options_that_ran(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theory": "G20", "grid": 32}))
    rep = run_json(capsys, "solve-channel", "--config", str(cfg), "--kn", "0.2")
    assert rep["config"] == {
        "subcommand": "solve-channel", "config": str(cfg), "theory": "G20",
        "m": None, "reduction": "planar", "bc": "obc", "kn": 0.2, "chi": 1.0,
        "grid": 32, "out": None, "reference": None}
    cfg.write_text(json.dumps({"theory": "G20", "grid": 32, "homogeneous": False,
                               "t_final": 0.1}))
    march = run_json(capsys, "energy-march", "--config", str(cfg))["config"]
    assert march["subcommand"] == "energy-march"
    assert set(march) - set(rep["config"]) == {"t_final", "cfl", "init", "seed",
                                               "homogeneous"}
    assert set(rep["config"]) - set(march) == {"reference"}
    assert (march["grid"], march["t_final"], march["homogeneous"]) == (32, 0.1, False)


def test_config_file_must_be_json_object(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    rc, _, err = run_cli(capsys, "solve-channel", "--config", str(cfg),
                         "--theory", "G20")
    assert rc == 1
    assert "JSON object" in err


def readme_commands():
    """Every ``momentbc`` command line in README's fenced sh blocks, its
    backslash continuations joined, as the argument list after the name."""
    with open(README) as fh:
        blocks = re.findall(r"^```sh\n(.*?)^```", fh.read(), re.S | re.M)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("momentbc ")]


def test_readme_command_lines_parse():
    # parsed only, not run: a renamed option or subcommand fails here
    subcommands = [parse_args(argv).subcommand for argv in readme_commands()]
    assert len(subcommands) == 10
    assert set(subcommands) == {"assemble", "check-stability", "solve-channel",
                                "compare", "energy-march"}


def declared_scripts():
    """The ``[project.scripts]`` table of the repository's pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


def run_python(code):
    # run the package under test, whatever the caller's environment holds
    src = os.path.dirname(os.path.dirname(momentbc.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


def test_installed_script_runs():
    scripts = declared_scripts()
    assert list(scripts) == ["momentbc"]
    # what pip's generated console-script wrapper does, so no install is needed
    code = ("import sys\n"
            "from importlib.metadata import EntryPoint\n"
            "sys.argv = ['momentbc', '--version']\n"
            f"ep = EntryPoint('momentbc', {scripts['momentbc']!r}, 'console_scripts')\n"
            "sys.exit(ep.load()())\n")
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"momentbc {momentbc.__version__}\n"


def test_import_loads_no_scipy():
    # scipy is loaded by the collocation solve only, not by the import
    # nor by the modal reference solves
    scipy_modules = "sorted(k for k in sys.modules if k.split('.')[0] == 'scipy')"
    code = ("import sys\n"
            "import momentbc, momentbc.cli\n"
            f"print({scipy_modules})\n")
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    code = ("import contextlib, io, sys\n"
            "from momentbc.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = main(['solve-channel', '--theory', 'G20', '--grid', '64',\n"
            "               '--reference', 'G35,G56'])\n"
            f"print(rc, {scipy_modules})\n")
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 []\n"


def test_import_loads_no_dataclasses_or_csv():
    # the records are namedtuples and csv is loaded by compare alone
    code = ("import sys\n"
            "import momentbc.cli\n"
            "print(sorted({'dataclasses', 'csv'} & set(sys.modules)))\n")
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_random_march_loads_no_numpy_random():
    # the march's seeded state comes from the standard library's random,
    # so neither numpy.random nor the hash modules it pulls in are loaded
    code = ("import contextlib, io, sys\n"
            "from momentbc.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = main(['energy-march', '--theory', 'G20', '--init', 'random',\n"
            "               '--grid', '32', '--t-final', '0.5'])\n"
            "print(rc, sorted(k for k in sys.modules if k.startswith('numpy.random')))\n")
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 []\n"


def test_import_loads_no_fractions_or_decimal():
    # the basis is built in integers, so no rational arithmetic is imported
    code = ("import sys\n"
            "import momentbc, momentbc.cli\n"
            "print([m for m in ('fractions', 'decimal') if m in sys.modules])\n")
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
