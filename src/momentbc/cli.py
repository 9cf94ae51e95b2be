"""Command-line interface for assembling, checking and solving moment systems.

Subcommands
    assemble         build a system, run verification, dump matrices
    check-stability  boundary-condition admissibility report
    solve-channel    steady heated-channel solve to CSV
    compare          join two channel CSVs and emit error columns + plot script
    energy-march     explicit time march recording the entropy energy

Every option is defined, defaulted and typed once, in the option
functions that build_parser calls, and each command reads the parsed
namespace; a command line builds the options of its own subcommand only.
``--config file.json`` names a JSON object whose keys are the
subcommand's option names (grid, t_final, normal_axis, ...).  Each key is
replayed as ``--key-with-dashes=value`` (a bare flag for true, nothing for
false) ahead of the command-line flags, so the command line wins and file
values pass the same checks; a key the subcommand has no option for is a
usage error.

Exit codes: 0 success; 1 usage or configuration error, which includes an
unknown option or config key, a missing --theory, a malformed --m or
--scan-chi, --m with a named theory, --bc with --scan-chi, an unknown
theory, a custom theory without the wall's temperature or normal
velocity for a command with walls, kn, cfl or t_final not finite and
positive, grid < 16, chi outside (0, 1], a negative seed, an unreadable
input, an unwritable output and a malformed compare CSV; 2 numerical
verification failure.
Each command returns its report, and main emits it as JSON on stdout
with the library version and, as "config", the subcommand's resolved
options: what ran.  Output paths resolve against MOMENTBC_OUTDIR when set.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .basis import _ordered_moments, verify_orthogonality
from .boundary import accommodation_gain, make_boundary_operator
from .channel import (ChannelConfig, reference_solution, solve_steady,
                      time_march_energy)
from .stability import check_stability, wall_certificate
from .system import (MomentTheory, assemble_system, theory_from_name,
                     verify_full_symmetry)
from .tensor import FULL3D, PLANAR

FLOAT_FMT = "%.17g"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with the documented usage exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def positive_float(text: str) -> float:
    """argparse type: a finite number above zero."""
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


def nonnegative_int(text: str) -> int:
    """argparse type: an integer at least zero."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text!r}")
    return value


def _normal_axis(p):
    p.add_argument("--normal-axis", choices=("x", "y"), default="x")


def _chi(p):
    p.add_argument("--chi", type=float, default=1.0,
                   help="accommodation coefficient in (0, 1]")


def _channel(p):
    p.add_argument("--bc", choices=("mbc", "obc"), default="obc")
    p.add_argument("--kn", type=float, default=0.3)
    _chi(p)
    p.add_argument("--grid", type=int, default=512, help="nodes, at least 16")


def _assemble_options(p):
    _normal_axis(p)
    p.add_argument("--dump", choices=("s-matrix", "a-x", "a-y", "a-z", "p-bgk"))
    p.add_argument("--out", help="CSV path for --dump (stdout when omitted)")


def _check_stability_options(p):
    _normal_axis(p)
    _chi(p)
    one = p.add_mutually_exclusive_group()  # a sweep reports both kinds
    one.add_argument("--bc", choices=("mbc", "obc"), help="one kind (default both)")
    one.add_argument("--scan-chi",
                     help="a:b:n accommodation sweep (inclusive endpoints)")


def _solve_channel_options(p):
    _channel(p)
    p.add_argument("--out", help="CSV path for the solution")
    p.add_argument("--reference",
                   help="comma list of theory names; writes the average of their "
                   "exact modal solutions sampled on the grid")


def _compare_options(p):
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--out", help="joined CSV path")
    p.add_argument("--plot", help="gnuplot script path")


def _energy_march_options(p):
    _channel(p)
    p.add_argument("--t-final", type=positive_float, default=10.0)
    p.add_argument("--cfl", type=positive_float, default=0.4)
    p.add_argument("--init", choices=("zero", "random"), default="zero")
    p.add_argument("--seed", type=nonnegative_int, default=0)
    p.add_argument("--homogeneous", action="store_true",
                   help="zero wall data and heating (pure decay test)")
    p.add_argument("--out", help="CSV path for the (t, energy) trace")


def build_parser(chosen: str = None) -> _Parser:
    """The parser of every subcommand, or, when chosen names one, of that
    one alone, which is all a command line that starts with chosen can
    reach.  Its usage then spells out every subcommand, as argparse does
    for the whole set."""
    parser = _Parser(prog="momentbc", description=__doc__.splitlines()[0])
    every = None if chosen is None else "{" + ",".join(_SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar=every)
    for name, (help, theory, options, _) in _SUBCOMMANDS.items():
        if chosen not in (None, name):
            continue
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON file of option values (flags win)")
        if theory:
            p.add_argument("--theory", required=True,
                           help="named theory (G20) or 'custom' with --m")
            p.add_argument("--m", help="comma list of radial counts per tensor rank")
            p.add_argument("--reduction", choices=(PLANAR, FULL3D), default=PLANAR)
        options(p)
    return parser


def parse_args(argv) -> argparse.Namespace:
    """argv parsed with its --config file's keys replayed as flags ahead of it."""
    pre = _Parser(prog="momentbc", add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    values = {}
    if path:
        try:
            with open(path) as fh:
                values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {path}: {exc}")
        if not isinstance(values, dict):
            raise UsageError("config file must hold a JSON object")
    flags = []
    for key, value in values.items():
        if not isinstance(value, (str, int, float)):  # bool is an int
            raise UsageError(f"config key {key!r} needs a string, number or boolean")
        flag = "--" + key.replace("_", "-")
        if value is True:
            flags.append(flag)
        elif value is not False:
            flags.append(f"{flag}={value}")
    chosen = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    args = build_parser(chosen).parse_args(argv[:1] + flags + argv[1:])
    # a false key replays as nothing, so it must name a flag to be checked at all
    for key, value in values.items():
        if value is False and not isinstance(getattr(args, key, None), bool):
            raise UsageError(f"config key {key!r} names no flag of {args.subcommand}")
    return args


def _outpath(path: str) -> str:
    if path is None or os.path.isabs(path):
        return path
    base = os.environ.get("MOMENTBC_OUTDIR", "")
    return os.path.join(base, path) if base else path


@contextlib.contextmanager
def _usage_errors():
    """Report the library's input checks (ValueError) as usage errors."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc))


def resolve_theory(args: argparse.Namespace) -> MomentTheory:
    if args.theory.lower() != "custom":
        if args.m:
            raise UsageError("--m applies only to --theory custom")
        with _usage_errors():
            return theory_from_name(args.theory, args.reduction)
    if not args.m:
        raise UsageError("--theory custom requires --m rank counts")
    try:
        counts = tuple(int(tok) for tok in args.m.split(","))
    except ValueError:
        raise UsageError(f"malformed --m list {args.m!r}")
    if not counts or min(counts) < 1:
        raise UsageError("--m entries must be positive integers")
    return MomentTheory(max_rank=len(counts) - 1, radial_counts=counts,
                        reduction=args.reduction)


def _wall_theory(args: argparse.Namespace) -> MomentTheory:
    """resolve_theory for a command with walls: the theory must hold what a
    wall reads, the temperature moment and the normal velocity (every named
    theory does)."""
    theory = resolve_theory(args)
    if theory.radial_counts[0] < 2 or theory.max_rank < 1:
        raise UsageError(f"{args.subcommand} needs the wall's temperature and normal "
                         f"velocity: --m {args.m} wants a first entry of at least 2 "
                         f"and two or more entries")
    return theory


def _channel_config(args: argparse.Namespace, **source) -> ChannelConfig:
    """The channel options as a ChannelConfig; its range checks are usage errors."""
    theory = _wall_theory(args)
    with _usage_errors():
        return ChannelConfig(theory=theory, kn=args.kn, chi=args.chi,
                             bc_kind=args.bc, n_grid=args.grid, **source)


def _emit(report: dict):
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _write_csv(path: str, header, columns) -> None:
    """Equal-length float columns as CSV in the csv module's default
    dialect.  No header name or FLOAT_FMT value holds a comma, quote or
    line break, so nothing needs quoting.  The columns are interleaved
    into one flat list and formatted 1024 rows at a time, each block by a
    single %, so that only one block's text is held at once."""
    width = len(columns)
    flat = np.column_stack(columns).ravel().tolist()
    row = ",".join([FLOAT_FMT] * width) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(flat), 1024 * width):
            block = tuple(flat[start:start + 1024 * width])
            fh.write((row * (len(block) // width)) % block)


def _write_matrix(M: np.ndarray, out: str):
    lines = [",".join(FLOAT_FMT % v for v in row) for row in np.atleast_2d(M)]
    text = "\n".join(lines) + "\n"
    if out:
        with open(_outpath(out), "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_assemble(args: argparse.Namespace) -> dict | None:
    theory = resolve_theory(args)
    sys_ = assemble_system(theory, normal_axis=args.normal_axis, axes=("x", "y", "z"))
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
    dec = sys_.characteristic

    if args.dump:
        matrices = {"s-matrix": sys_.S, "a-x": sys_.A["x"], "a-y": sys_.A["y"],
                    "a-z": sys_.A["z"], "p-bgk": sys_.P_bgk}
        _write_matrix(matrices[args.dump], args.out)
        return None
    return {
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
    }


def _stability_payload(sys_, kind, chi) -> dict:
    bc = make_boundary_operator(sys_, kind=kind, chi=chi)
    rep = check_stability(sys_.characteristic, bc.B)
    payload = {
        "bc": kind,
        "verdict": rep.verdict,
        "stable": rep.stable,
        "kernel_ok": rep.kernel_ok,
        "kernel_residual": rep.kernel_residual,
        "min_schur_eig": rep.min_schur_eig,
        "reflection_cond": rep.reflection_cond,
        "details": rep.details,
    }
    if kind == "obc":
        payload["obc_diagnostics"] = dict(bc.diagnostics)
    return payload


def _combined_stability(sys_, chi) -> dict:
    mbc = _stability_payload(sys_, "mbc", chi)
    obc = _stability_payload(sys_, "obc", chi)
    return {
        "chi": chi,
        "mbc_stable": mbc["stable"],
        "obc_stable": obc["stable"],
        "min_eig_L": obc["obc_diagnostics"]["min_eig_L"],
        "cond_Aoe_hat": obc["obc_diagnostics"]["cond_Aoe_hat"],
        "kernel_residuals": {"mbc": mbc["kernel_residual"],
                             "obc": obc["kernel_residual"]},
        "min_schur_eig": {"mbc": mbc["min_schur_eig"],
                          "obc": obc["min_schur_eig"]},
    }


def cmd_check_stability(args: argparse.Namespace) -> dict:
    theory = _wall_theory(args)
    chis = [args.chi]
    if args.scan_chi:
        try:
            a, b, n = args.scan_chi.split(":")
            a, b, n = float(a), float(b), int(n)
        except ValueError:
            raise UsageError(f"malformed --scan-chi {args.scan_chi!r} (want a:b:n)")
        if n < 1:
            raise UsageError("--scan-chi needs at least one sample")
        chis = [float(c) for c in np.linspace(a, b, n)]
    with _usage_errors():
        for chi in (args.chi, *chis):
            accommodation_gain(chi)
    axis = args.normal_axis
    sys_ = assemble_system(theory, normal_axis=axis, axes=(axis,))
    if args.scan_chi:
        # one check per kind, at the largest gain, verifies the certificates
        payload = {"checked": _combined_stability(sys_, 1.0)}
    elif args.bc:
        payload = _stability_payload(sys_, args.bc, args.chi)
        payload["chi"] = args.chi
    else:
        payload = _combined_stability(sys_, args.chi)
    kinds = (args.bc,) if args.bc else ("mbc", "obc")
    certificates = {kind: wall_certificate(sys_, kind) for kind in kinds}
    if args.scan_chi:
        for kind, cert in certificates.items():
            if cert.stable != payload["checked"][f"{kind}_stable"]:
                raise RuntimeError(f"{kind} wall certificate reads {cert.verdict}, "
                                   f"against its check at chi = 1")
        # the certificates hold at every chi; the response scales by 2 beta
        held = sys_.obc[1]
        payload["scan"] = [{"chi": c,
                            "mbc_stable": certificates["mbc"].stable,
                            "obc_stable": certificates["obc"].stable,
                            "min_eig_L": 2.0 * accommodation_gain(c) * held["min_eig_L"],
                            "cond_Aoe_hat": held["cond_Aoe_hat"]} for c in chis]
    payload["theory"] = theory.name
    payload["wall_form_min"] = {kind: cert.wall_form_min
                                for kind, cert in certificates.items()}
    payload["wall_certificate"] = {
        kind: {"verdict": cert.verdict, "kernel_defect": list(cert.kernel_defect),
               "form_min": list(cert.form_min)}
        for kind, cert in certificates.items()}
    return payload


def cmd_solve_channel(args: argparse.Namespace) -> dict:
    channel_cfg = _channel_config(args)
    theory = channel_cfg.theory
    if args.reference:
        with _usage_errors():
            theories = tuple(theory_from_name(tok.strip(), theory.reduction)
                             for tok in args.reference.split(","))
        sol = reference_solution(channel_cfg, theories)
        solved = ",".join(th.name for th in theories)
        names, modes = [], []
    else:
        sol = solve_steady(channel_cfg)
        solved = theory.name
        names = [bf.name for bf in _ordered_moments(theory, "y")]
        modes = sol.alpha.T
    payload = {"theory": solved, "reduction": theory.reduction,
               "diagnostics": sol.diagnostics}
    if args.out:
        header = ["y", *sol.fields, *names]
        _write_csv(_outpath(args.out), header, [sol.y, *sol.fields.values(), *modes])
        payload["columns"] = header
        payload["out"] = args.out
    return payload


def _read_channel_csv(path: str) -> dict:
    """A CSV's columns by header name.  Anything but a header over one or
    more rows of numbers, each as long as the header, is a usage error."""
    try:
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
        if len(rows) < 2 or any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("want a header over equal-length rows")
        data = np.array([[float(tok) for tok in row] for row in rows[1:]])
    except (ValueError, csv.Error) as exc:
        raise UsageError(f"malformed CSV {path}: {exc}")
    return {name: data[:, j] for j, name in enumerate(rows[0])}


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


def cmd_compare(args: argparse.Namespace) -> dict:
    left = _read_channel_csv(_outpath(args.left))
    right = _read_channel_csv(_outpath(args.right))
    for col in ("y", "theta", "sigma_yy"):
        if col not in left or col not in right:
            raise UsageError(f"both inputs need a {col!r} column")
    if left["y"].shape != right["y"].shape or not np.allclose(
            left["y"], right["y"], rtol=0, atol=1e-12):
        raise UsageError("inputs live on different grids")
    e_theta = np.abs(left["theta"] - right["theta"])
    e_sigma = np.abs(left["sigma_yy"] - right["sigma_yy"])
    payload = {
        "max_e_theta": float(e_theta.max()),
        "max_e_sigma": float(e_sigma.max()),
    }
    if args.out:
        out = _outpath(args.out)
        _write_csv(out, ["y", "theta_left", "theta_right", "sigma_yy_left",
                         "sigma_yy_right", "e_theta", "e_sigma"],
                   [left["y"], left["theta"], right["theta"], left["sigma_yy"],
                    right["sigma_yy"], e_theta, e_sigma])
        payload["out"] = args.out
        if args.plot:
            # the script names the CSV where it was written
            with open(_outpath(args.plot), "w") as fh:
                fh.write(_GNUPLOT.format(csv=out, png=out + ".png"))
            payload["plot"] = args.plot
    return payload


def cmd_energy_march(args: argparse.Namespace) -> dict:
    quiet = {"wall_temp": 0.0, "source_amplitude": 0.0} if args.homogeneous else {}
    channel_cfg = _channel_config(args, **quiet)
    res = time_march_energy(channel_cfg, t_final=args.t_final, cfl=args.cfl,
                            init=args.init, seed=args.seed)
    if args.out:
        _write_csv(_outpath(args.out), ["t", "energy"], [res.times, res.energy])
    e0 = float(res.energy[0])
    steps = int(res.times.size - 1)
    return {
        "theory": channel_cfg.theory.name,
        "dt": res.dt,
        "steps": steps,
        "energy_initial": e0,
        "energy_final": float(res.energy[-1]),
        "max_energy_growth": res.max_energy_growth,
        "relative_growth": res.max_energy_growth / e0 if e0 > 0 else 0.0,
        "blowup": res.blowup,
        "out": args.out,
        "classes": list(res.classes),
        "health": {"decoupling_defect": res.decoupling_defect},
        "timings": {"operator_s": res.operator_s,
                    "march_s": res.march_s,
                    "step_us": 1e6 * res.march_s / steps},
    }


# subcommand: (help, takes a theory, its own options, its command)
_SUBCOMMANDS = {
    "assemble": ("assemble and verify one moment system", True,
                 _assemble_options, cmd_assemble),
    "check-stability": ("boundary admissibility report", True,
                        _check_stability_options, cmd_check_stability),
    "solve-channel": ("steady heated-channel solve", True,
                      _solve_channel_options, cmd_solve_channel),
    "compare": ("join two channel CSVs, emit error columns", False,
                _compare_options, cmd_compare),
    "energy-march": ("explicit march with energy trace", True,
                     _energy_march_options, cmd_energy_march),
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--version" in argv:
        if "--json" in argv:
            _emit({"name": "momentbc", "version": __version__})
        else:
            print(f"momentbc {__version__}")
        return 0
    try:
        args = parse_args(argv)
        payload = _SUBCOMMANDS[args.subcommand][3](args)
    except (UsageError, OSError) as exc:
        print(f"momentbc: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"momentbc: numerical verification failure: {exc}", file=sys.stderr)
        return 2
    if payload is not None:
        _emit({"version": __version__, "config": vars(args), **payload})
    return 0


if __name__ == "__main__":
    sys.exit(main())
