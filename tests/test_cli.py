"""End-to-end CLI coverage; everything in-process except one script check."""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import momentbc
from momentbc.cli import main

from conftest import cached_system

PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")


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


def test_unknown_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_check_stability_single_kind(capsys):
    rep = run_json(capsys, "check-stability", "--theory", "G20", "--bc", "mbc")
    assert rep["verdict"] == "unstable"
    assert rep["stable"] is False
    assert rep["kernel_ok"] is False
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


def test_check_stability_scan(capsys):
    rep = run_json(capsys, "check-stability", "--theory", "G20",
                   "--scan-chi", "0.5:1.0:3")
    scan = rep["scan"]
    assert len(scan) == 3
    assert [s["chi"] for s in scan] == [0.5, 0.75, 1.0]
    assert all(s["obc_stable"] for s in scan)
    for entry in scan:
        for kind in ("mbc", "obc"):
            value = entry["min_schur_eig"][kind]
            assert np.isfinite(value), (entry["chi"], kind)
            single = run_json(capsys, "check-stability", "--theory", "G20",
                              "--bc", kind, "--chi", str(entry["chi"]))
            assert value == single["min_schur_eig"], (entry["chi"], kind)


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


def test_compare_grid_mismatch_exits_one(capsys, tmp_path):
    left = tmp_path / "left.csv"
    right = tmp_path / "right.csv"
    run_json(capsys, "solve-channel", "--theory", "G20", "--grid", "48",
             "--out", str(left))
    run_json(capsys, "solve-channel", "--theory", "G20", "--grid", "32",
             "--out", str(right))
    rc, _, err = run_cli(capsys, "compare", str(left), str(right))
    assert rc == 1
    assert "different grids" in err


def test_energy_march_trace(capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    rep = run_json(capsys, "energy-march", "--theory", "G20", "--homogeneous",
                   "--init", "random", "--grid", "32", "--t-final", "0.5",
                   "--out", str(trace))
    assert rep["blowup"] is False
    assert rep["relative_growth"] <= 1e-6
    assert rep["energy_final"] < rep["energy_initial"]
    assert rep["config"]["homogeneous"] is True
    for key in ("march_s", "step_us"):
        assert np.isfinite(rep["timings"][key]) and rep["timings"][key] > 0.0
    header, data = load_csv(trace)
    assert header == ["t", "energy"]
    assert data[0, 0] == 0.0
    assert data[-1, 0] == pytest.approx(0.5)
    assert np.all(np.diff(data[:, 1]) <= 1e-9)


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
        assert comp["modes"]["polynomial"] == 8


def test_outdir_env_resolves_relative_paths(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MOMENTBC_OUTDIR", str(tmp_path))
    run_cli(capsys, "assemble", "--theory", "G20",
            "--dump", "s-matrix", "--out", "rel.csv")
    assert (tmp_path / "rel.csv").exists()


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
