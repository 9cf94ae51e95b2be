"""Command-line interface for assembling, checking and solving moment systems.

Subcommands
    assemble         build a system, run verification, dump matrices
    check-stability  boundary-condition admissibility report
    solve-channel    steady heated-channel solve to CSV
    compare          join two channel CSVs and emit error columns + plot script
    energy-march     explicit time march recording the entropy energy

Exit codes: 0 success, 1 usage or configuration error, 2 numerical
verification failure.  Reports are JSON on stdout and embed the resolved
configuration and library version.  Output paths resolve against
MOMENTBC_OUTDIR when set.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .basis import verify_orthogonality
from .boundary import make_boundary_operator
from .channel import (ChannelConfig, SOURCE_AMPLITUDE, WALL_TEMP_COEFF,
                      reference_solution, solve_steady, time_march_energy)
from .stability import check_stability
from .system import (MomentTheory, assemble_system,
                     characteristic_decomposition, grad_theory,
                     theory_from_name, verify_full_symmetry)
from .tensor import FULL3D, PLANAR

FLOAT_FMT = "%.17g"

DEFAULTS = {
    "reduction": PLANAR,
    "normal_axis": "x",
    "chi": 1.0,
    "kn": 0.3,
    "grid": 512,
    "bc": None,
    "t_final": 10.0,
    "cfl": 0.4,
    "init": "zero",
    "seed": 0,
    "homogeneous": False,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with the documented usage exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@dataclass
class RunConfig:
    """Resolved options of one invocation; file values lose to flags."""

    subcommand: str
    values: dict = field(default_factory=dict)


def _merge(args: argparse.Namespace, file_values: dict) -> RunConfig:
    values = dict(DEFAULTS)
    values.update(file_values)
    for key, val in vars(args).items():
        if key in ("config",):
            continue
        if val is not None:
            values[key] = val
        else:
            values.setdefault(key, None)
    return RunConfig(subcommand=args.subcommand, values=values)


def parse_config(argv, config_file: str = None) -> RunConfig:
    """Parse argv (plus an optional JSON defaults file) into a RunConfig."""
    parser = build_parser()
    args = parser.parse_args(argv)
    file_values = {}
    path = getattr(args, "config", None) or config_file
    if path:
        try:
            with open(path) as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {path}: {exc}")
        if not isinstance(file_values, dict):
            raise UsageError("config file must hold a JSON object")
    return _merge(args, file_values)


def build_parser() -> _Parser:
    parser = _Parser(prog="momentbc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, theory=True):
        p.add_argument("--config", help="JSON file with default option values")
        if theory:
            p.add_argument("--theory", required=False,
                           help="named theory (G20) or 'custom' with --m")
            p.add_argument("--m", help="comma list of radial counts per tensor rank")
            p.add_argument("--reduction", choices=(PLANAR, FULL3D))

    p = sub.add_parser("assemble", help="assemble and verify one moment system")
    common(p)
    p.add_argument("--normal-axis", dest="normal_axis", choices=("x", "y", "z"))
    p.add_argument("--dump", choices=("s-matrix", "a-x", "a-y", "a-z", "p-bgk"))
    p.add_argument("--out", help="CSV path for --dump (stdout when omitted)")

    p = sub.add_parser("check-stability", help="boundary admissibility report")
    common(p)
    p.add_argument("--chi", type=float)
    p.add_argument("--bc", choices=("mbc", "obc"))
    p.add_argument("--scan-chi", dest="scan_chi",
                   help="a:b:n accommodation sweep (inclusive endpoints)")

    p = sub.add_parser("solve-channel", help="steady heated-channel solve")
    common(p)
    p.add_argument("--bc", choices=("mbc", "obc"))
    p.add_argument("--kn", type=float)
    p.add_argument("--chi", type=float)
    p.add_argument("--grid", type=int)
    p.add_argument("--out", help="CSV path for the solution")
    p.add_argument("--reference",
                   help="comma list of theory names; writes their averaged fields")

    p = sub.add_parser("compare", help="join two channel CSVs, emit error columns")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--config", help="JSON file with default option values")
    p.add_argument("--out", help="joined CSV path")
    p.add_argument("--plot", help="gnuplot script path")

    p = sub.add_parser("energy-march", help="explicit march with energy trace")
    common(p)
    p.add_argument("--bc", choices=("mbc", "obc"))
    p.add_argument("--kn", type=float)
    p.add_argument("--chi", type=float)
    p.add_argument("--grid", type=int)
    p.add_argument("--t-final", dest="t_final", type=float)
    p.add_argument("--cfl", type=float)
    p.add_argument("--init", choices=("zero", "random"))
    p.add_argument("--seed", type=int)
    p.add_argument("--homogeneous", action="store_true", default=None,
                   help="zero wall data and heating (pure decay test)")
    p.add_argument("--out", help="CSV path for the (t, energy) trace")

    return parser


def _outpath(path: str) -> str:
    if path is None or os.path.isabs(path):
        return path
    base = os.environ.get("MOMENTBC_OUTDIR", "")
    return os.path.join(base, path) if base else path


def resolve_theory(cfg: RunConfig) -> MomentTheory:
    name = cfg.values.get("theory")
    if not name:
        raise UsageError("--theory is required")
    reduction = cfg.values.get("reduction") or PLANAR
    if name.lower() == "custom":
        raw = cfg.values.get("m")
        if not raw:
            raise UsageError("--theory custom requires --m rank counts")
        try:
            counts = tuple(int(tok) for tok in str(raw).split(","))
        except ValueError:
            raise UsageError(f"malformed --m list {raw!r}")
        if not counts or min(counts) < 1:
            raise UsageError("--m entries must be positive integers")
        return MomentTheory(max_rank=len(counts) - 1, radial_counts=counts,
                            reduction=reduction)
    try:
        return theory_from_name(name, reduction)
    except ValueError as exc:
        raise UsageError(str(exc))


def _config_echo(cfg: RunConfig) -> dict:
    out = {"subcommand": cfg.subcommand}
    out.update({k: v for k, v in sorted(cfg.values.items()) if v is not None})
    return out


def _report(cfg: RunConfig, payload: dict) -> dict:
    return {"version": __version__, "config": _config_echo(cfg), **payload}


def _emit(report: dict):
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _write_matrix(M: np.ndarray, out: str):
    lines = [",".join(FLOAT_FMT % v for v in row) for row in np.atleast_2d(M)]
    text = "\n".join(lines) + "\n"
    if out:
        with open(_outpath(out), "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_assemble(cfg: RunConfig) -> int:
    theory = resolve_theory(cfg)
    axis = cfg.values.get("normal_axis") or "x"
    sys_ = assemble_system(theory, normal_axis=axis, axes=("x", "y", "z"))
    orth = verify_orthogonality(sys_.basis)
    if not orth.ok:
        raise RuntimeError(f"orthogonality defect {orth.max_deviation:.3e}")
    sym = {ax: verify_full_symmetry(sys_.basis, ax) for ax in ("x", "y", "z")}
    bad = {ax: r.max_asymmetry for ax, r in sym.items() if not r.ok}
    if bad:
        raise RuntimeError(f"flux symmetry defect {bad}")
    s_eigs = np.linalg.eigvalsh(sys_.S)
    if s_eigs.min() <= 0:
        raise RuntimeError(f"symmetrizer not positive definite ({s_eigs.min():.3e})")
    dec = characteristic_decomposition(sys_)

    dump = cfg.values.get("dump")
    if dump:
        matrices = {"s-matrix": sys_.S, "a-x": sys_.A["x"], "a-y": sys_.A["y"],
                    "a-z": sys_.A["z"], "p-bgk": sys_.P_bgk}
        _write_matrix(matrices[dump], cfg.values.get("out"))
        return 0
    _emit(_report(cfg, {
        "theory": theory.name,
        "reduction": theory.reduction,
        "moments": sys_.size,
        "n_odd": sys_.n_o,
        "n_even": sys_.n_e,
        "names": sys_.basis.names(),
        "char_counts": {"neg": dec.n_neg, "zero": dec.n_zero, "pos": dec.n_pos},
        "max_speed": dec.max_speed,
        "checks": {
            "orthogonality_defect": orth.max_deviation,
            "flux_asymmetry": {ax: r.max_asymmetry for ax, r in sym.items()},
            "symmetrizer_min_eig": float(s_eigs.min()),
        },
    }))
    return 0


def _stability_payload(sys_, dec, kind, chi) -> dict:
    bc = make_boundary_operator(sys_, kind=kind, chi=chi)
    rep = check_stability(dec, bc.B)
    return {
        "bc": kind,
        "verdict": rep.verdict,
        "stable": rep.stable,
        "kernel_ok": rep.kernel_ok,
        "kernel_residual": rep.kernel_residual,
        "min_schur_eig": rep.min_schur_eig,
        "reflection_cond": rep.reflection_cond,
        "details": {k: (v if not isinstance(v, np.generic) else v.item())
                    for k, v in rep.details.items()},
        "obc_diagnostics": dict(bc.diagnostics),
    }


def _combined_stability(sys_, dec, chi) -> dict:
    mbc = _stability_payload(sys_, dec, "mbc", chi)
    obc = _stability_payload(sys_, dec, "obc", chi)
    return {
        "chi": chi,
        "mbc_stable": mbc["stable"],
        "obc_stable": obc["stable"],
        "min_eig_L": obc["obc_diagnostics"].get("min_eig_L"),
        "cond_Aoe_hat": obc["obc_diagnostics"].get("cond_Aoe_hat"),
        "kernel_residuals": {"mbc": mbc["kernel_residual"],
                             "obc": obc["kernel_residual"]},
        "min_schur_eig": {"mbc": mbc["min_schur_eig"],
                          "obc": obc["min_schur_eig"]},
    }


def cmd_check_stability(cfg: RunConfig) -> int:
    theory = resolve_theory(cfg)
    axis = cfg.values.get("normal_axis") or "x"
    sys_ = assemble_system(theory, normal_axis=axis, axes=(axis,))
    dec = characteristic_decomposition(sys_)
    scan = cfg.values.get("scan_chi")
    if scan:
        try:
            a, b, n = scan.split(":")
            a, b, n = float(a), float(b), int(n)
        except ValueError:
            raise UsageError(f"malformed --scan-chi {scan!r} (want a:b:n)")
        if n < 1:
            raise UsageError("--scan-chi needs at least one sample")
        chis = np.linspace(a, b, n)
        _emit(_report(cfg, {
            "theory": theory.name,
            "scan": [_combined_stability(sys_, dec, float(c)) for c in chis],
        }))
        return 0
    chi = float(cfg.values.get("chi") or 1.0)
    kind = cfg.values.get("bc")
    if kind:
        payload = _stability_payload(sys_, dec, kind, chi)
        payload.update({"theory": theory.name, "chi": chi})
        _emit(_report(cfg, payload))
        return 0
    payload = _combined_stability(sys_, dec, chi)
    payload["theory"] = theory.name
    _emit(_report(cfg, payload))
    return 0


def _write_channel_csv(path: str, sol, names) -> list:
    cols = ["y"] + list(sol.fields.keys())
    arrays = [sol.y] + [sol.fields[k] for k in sol.fields]
    if sol.alpha is not None:
        cols += names
        arrays += [sol.alpha[:, j] for j in range(sol.alpha.shape[1])]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for i in range(sol.y.size):
            writer.writerow([FLOAT_FMT % a[i] for a in arrays])
    return cols


def cmd_solve_channel(cfg: RunConfig) -> int:
    theory = resolve_theory(cfg)
    try:
        channel_cfg = ChannelConfig(
            theory=theory,
            kn=float(cfg.values.get("kn") or 0.3),
            chi=float(cfg.values.get("chi") or 1.0),
            bc_kind=cfg.values.get("bc") or "obc",
            n_grid=int(cfg.values.get("grid") or 512),
        )
    except ValueError as exc:
        raise UsageError(str(exc))
    ref_names = cfg.values.get("reference")
    if ref_names:
        theories = tuple(theory_from_name(tok.strip(), theory.reduction)
                         for tok in ref_names.split(","))
        sol = reference_solution(channel_cfg, theories)
        names = []
    else:
        sys_ = assemble_system(theory, normal_axis="y", axes=("y",))
        sol = solve_steady(channel_cfg, sys=sys_)
        names = sys_.basis.names()
    out = cfg.values.get("out")
    payload = {"theory": theory.name, "diagnostics": sol.diagnostics}
    if out:
        cols = _write_channel_csv(_outpath(out), sol, names)
        payload["out"] = out
        payload["columns"] = cols
    _emit(_report(cfg, payload))
    return 0


def _read_channel_csv(path: str) -> dict:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(tok) for tok in row] for row in reader if row]
    data = np.array(rows)
    return {name: data[:, j] for j, name in enumerate(header)}


_GNUPLOT = """\
set terminal pngcairo size 1200,800
set output '{png}'
set datafile separator ','
set key autotitle columnhead
set multiplot layout 2,2
set xlabel 'y'
set ylabel 'temperature'
plot '{csv}' using 1:2 with lines, '' using 1:3 with lines
set ylabel 'normal stress'
plot '{csv}' using 1:4 with lines, '' using 1:5 with lines
set ylabel 'temperature error'
plot '{csv}' using 1:6 with lines
set ylabel 'stress error'
plot '{csv}' using 1:7 with lines
unset multiplot
"""


def cmd_compare(cfg: RunConfig) -> int:
    left = _read_channel_csv(_outpath(cfg.values["left"]))
    right = _read_channel_csv(_outpath(cfg.values["right"]))
    for col in ("y", "theta", "sigma_yy"):
        if col not in left or col not in right:
            raise UsageError(f"both inputs need a {col!r} column")
    if left["y"].shape != right["y"].shape or not np.allclose(
            left["y"], right["y"], rtol=0, atol=1e-12):
        raise UsageError("inputs live on different grids")
    e_theta = np.abs(left["theta"] - right["theta"])
    e_sigma = np.abs(left["sigma_yy"] - right["sigma_yy"])
    out = cfg.values.get("out")
    payload = {
        "max_e_theta": float(e_theta.max()),
        "max_e_sigma": float(e_sigma.max()),
    }
    if out:
        out = _outpath(out)
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["y", "theta_left", "theta_right",
                            "sigma_yy_left", "sigma_yy_right",
                            "e_theta", "e_sigma"])
            for i in range(left["y"].size):
                writer.writerow([FLOAT_FMT % v for v in (
                    left["y"][i], left["theta"][i], right["theta"][i],
                    left["sigma_yy"][i], right["sigma_yy"][i],
                    e_theta[i], e_sigma[i])])
        payload["out"] = out
        plot = cfg.values.get("plot")
        if plot:
            plot = _outpath(plot)
            with open(plot, "w") as fh:
                fh.write(_GNUPLOT.format(csv=out, png=out + ".png"))
            payload["plot"] = plot
    _emit(_report(cfg, payload))
    return 0


def cmd_energy_march(cfg: RunConfig) -> int:
    theory = resolve_theory(cfg)
    homogeneous = bool(cfg.values.get("homogeneous"))
    try:
        channel_cfg = ChannelConfig(
            theory=theory,
            kn=float(cfg.values.get("kn") or 0.3),
            chi=float(cfg.values.get("chi") or 1.0),
            bc_kind=cfg.values.get("bc") or "obc",
            n_grid=int(cfg.values.get("grid") or 128),
            wall_temp=0.0 if homogeneous else WALL_TEMP_COEFF,
            source_amplitude=0.0 if homogeneous else SOURCE_AMPLITUDE,
        )
    except ValueError as exc:
        raise UsageError(str(exc))
    res = time_march_energy(
        channel_cfg,
        t_final=float(cfg.values.get("t_final") or 10.0),
        cfl=float(cfg.values.get("cfl") or 0.4),
        init=cfg.values.get("init") or "zero",
        seed=int(cfg.values.get("seed") or 0),
    )
    out = cfg.values.get("out")
    if out:
        with open(_outpath(out), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "energy"])
            for t, e in zip(res.times, res.energy):
                writer.writerow([FLOAT_FMT % t, FLOAT_FMT % e])
    e0 = float(res.energy[0])
    steps = int(res.times.size - 1)
    _emit(_report(cfg, {
        "theory": theory.name,
        "dt": res.dt,
        "steps": steps,
        "energy_initial": e0,
        "energy_final": float(res.energy[-1]),
        "max_energy_growth": res.max_energy_growth,
        "relative_growth": res.max_energy_growth / e0 if e0 > 0 else 0.0,
        "blowup": res.blowup,
        "out": out,
        "timings": {"march_s": res.march_s,
                    "step_us": 1e6 * res.march_s / steps},
    }))
    return 0


_COMMANDS = {
    "assemble": cmd_assemble,
    "check-stability": cmd_check_stability,
    "solve-channel": cmd_solve_channel,
    "compare": cmd_compare,
    "energy-march": cmd_energy_march,
}


def run(cfg: RunConfig) -> int:
    return _COMMANDS[cfg.subcommand](cfg)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--version" in argv:
        if "--json" in argv:
            _emit({"name": "momentbc", "version": __version__})
        else:
            print(f"momentbc {__version__}")
        return 0
    try:
        cfg = parse_config(argv)
        return run(cfg)
    except UsageError as exc:
        print(f"momentbc: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"momentbc: numerical verification failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
