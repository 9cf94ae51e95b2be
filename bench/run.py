"""momentbc benchmark: README CLI commands, one fresh interpreter per command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run it from a source checkout: it needs ``src/momentbc`` beside the
``bench`` directory, and exits with code 2 without a result otherwise.

A workload is two CLI commands.  A sample runs each of them as one
``momentbc.cli.main(argv)`` call in a fresh interpreter with
PYTHONPATH=src and one BLAS thread, one child at a time, because a CLI
user pays the import and the basis/tensor cache warm-up on every call.
Samples repeat until ``--seconds`` have passed.  Every command's output
is checked against the bounds the repository's own code and acceptance
tests use.

Times are scaled to a fixed host speed with the gauge every child runs
(gauge.py), because on a shared host the same command runs up to 1.5-2x
slower for minutes at a time.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced samples and reports the per-layer metrics: self times
and counts from spans around the layer functions (see tracer.py), health
numbers copied from the CLI reports, and the tracing overhead.  The last
stdout line is the JSON result; the line before it is the environment
record.  Both, with every sample and the raw spans, also go to
``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from gauge import REFERENCE_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

RUN_LIMIT_S = 165.0      # the whole run, including set-up, ends within this
SETUP_PROBES = 3         # import-only children per run, besides every sample's import

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "success_rate": "ratio",
}

# The layer functions with a self time of their own in PER_LAYER; every
# other wrapped function's self time is summed into other.self_s.
NAMED_SPANS = (
    "basis.build_basis_set", "basis.verify_orthogonality",
    "system.assemble_flux", "system.verify_full_symmetry",
    "system.assemble_symmetrizer", "system.characteristic_decomposition",
    "boundary.assemble_mbc", "boundary.assemble_obc",
    "stability.check_stability", "channel.solve_steady", "channel.spsolve",
    "channel.time_march_energy",
)
COUNTED_SPANS = ("system.assemble_flux", "system.verify_full_symmetry",
                 "boundary.assemble_mbc", "stability.check_stability")
HEALTH = ("basis.orthogonality_defect", "system.flux_asymmetry_max",
          "channel.residual_max", "channel.flux_balance_err_max",
          "stability.min_schur_eig_obc", "channel.march_relative_growth")
PER_LAYER = {
    "cli.self_s": "s",
    "other.self_s": "s",
    **{f"{name}.self_s": "s" for name in NAMED_SPANS},
    **{f"{name}.calls": "count" for name in COUNTED_SPANS},
    "channel.K_rows": "count",
    "channel.K_nnz": "count",
    "channel.march_steps": "count",
    "channel.march_step_us": "us",
    **{name: "1" for name in HEALTH},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "raw.wall_s": "s",
    "host.gauge_us": "us",
}


# ---------------------------------------------------------------- checks
# Thresholds are the repository's own: basis.OrthogonalityReport.ok,
# system.SymmetryReport.ok and acceptance criteria 06, 07 and 09.

def _csv_rows(path: Path) -> int:
    with open(path) as fh:
        return sum(1 for line in fh if line.strip()) - 1


def check_assemble(report, workdir, expect):
    checks = report["checks"]
    return [
        (report["moments"] == expect["moments"], f"moments {report['moments']}"),
        (checks["orthogonality_defect"] < 1e-12,
         f"orthogonality defect {checks['orthogonality_defect']:.3e}"),
        (max(checks["flux_asymmetry"].values()) < 1e-10,
         f"flux asymmetry {checks['flux_asymmetry']}"),
    ]


def check_channel(report, workdir, expect):
    comps = report["diagnostics"]["component_diagnostics"]
    out = [(len(comps) == expect["components"], f"{len(comps)} components"),
           (_csv_rows(workdir / report["out"]) == expect["rows"], "CSV row count")]
    for d in comps:
        err = abs(d["flux_balance"] - d["flux_balance_target"])
        out += [(d["max_v_y"] < 1e-8, f"max_v_y {d['max_v_y']:.3e}"),
                (err < 1e-6, f"flux balance error {err:.3e}"),
                (d["symmetry_error"] < 1e-6, f"symmetry error {d['symmetry_error']:.3e}")]
    return out


def check_march(report, workdir, expect):
    return [
        (report["blowup"] is False, "blowup"),
        (report["relative_growth"] <= 1e-6,
         f"relative energy growth {report['relative_growth']:.3e}"),
        (_csv_rows(workdir / report["out"]) == report["steps"] + 1, "CSV row count"),
    ]


def check_scan(report, workdir, expect):
    scan = report["scan"]
    return [(len(scan) == expect["points"], f"{len(scan)} scan points")] + [
        (not p["mbc_stable"] and p["obc_stable"],
         f"chi {p['chi']}: mbc stable {p['mbc_stable']}, obc stable {p['obc_stable']}")
        for p in scan]


@dataclass(frozen=True)
class Command:
    argv: tuple            # "{seed}" is replaced by the run's seed
    expect: dict
    smoke_argv: tuple      # reduced size for --smoke
    smoke_expect: dict
    check: Callable[[dict, Path, dict], list]   # -> [(passed, message), ...]


ASSEMBLE = Command(
    ("assemble", "--theory", "G165"), {"moments": 95},
    ("assemble", "--theory", "G35"), {"moments": 22},
    check_assemble)
SCAN = Command(
    ("check-stability", "--theory", "G165", "--scan-chi", "0.2:1.0:5"), {"points": 5},
    ("check-stability", "--theory", "G35", "--scan-chi", "0.2:1.0:2"), {"points": 2},
    check_scan)
CHANNEL = Command(
    ("solve-channel", "--theory", "G20", "--grid", "512",
     "--reference", "G56,G84,G120", "--out", "ref.csv"),
    {"components": 3, "rows": 512},
    ("solve-channel", "--theory", "G20", "--grid", "512",
     "--reference", "G35,G56", "--out", "ref.csv"),
    {"components": 2, "rows": 512},
    check_channel)
MARCH = Command(
    ("energy-march", "--theory", "G20", "--homogeneous", "--init", "random",
     "--seed", "{seed}", "--grid", "128", "--t-final", "10", "--out", "trace.csv"),
    {},
    ("energy-march", "--theory", "G20", "--homogeneous", "--init", "random",
     "--seed", "{seed}", "--grid", "32", "--t-final", "2", "--out", "trace.csv"),
    {},
    check_march)

# A sample runs a workload's commands one after the other, each in its own
# fresh interpreter, as a user would type them.  Why these: bench/README.md.
WORKLOADS = {
    "assemble-scan-g165": (ASSEMBLE, SCAN),
    "channel-march-g20": (CHANNEL, MARCH),
}


def uses_seed(name: str) -> bool:
    return any("{seed}" in command.argv for command in WORKLOADS[name])


def output_failures(command, record, workdir, expect) -> list:
    """Reasons the command failed; empty when the exit code and output pass."""
    if record.get("rc") != 0:
        return [f"exit code {record.get('rc')}"]
    try:
        report = json.loads(record["report"])
        return [msg for ok, msg in command.check(report, workdir, expect) if not ok]
    except (KeyError, TypeError, ValueError, OSError) as exc:
        return [f"malformed output: {exc!r}"]


# --------------------------------------------------------------- children

def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "MOMENTBC_"))}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(args, workdir: Path, deadline: float) -> dict:
    """Run child.py to completion; its JSON record, or the failure."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return {"rc": None, "error": "run time limit reached"}
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), *args],
                              cwd=workdir, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"rc": None, "error": "run time limit reached"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"rc": proc.returncode, "error": proc.stderr[-2000:]}
    record = json.loads(lines[-1])
    record["stderr"] = proc.stderr[-2000:]
    return record


def run_sample(commands, argvs, expects, traced, workdir, deadline) -> dict:
    """One sample: the workload's commands in turn, each in a fresh child."""
    records = []
    for command, argv, expect in zip(commands, argvs, expects):
        record = run_child((["--trace"] if traced else []) + ["--"] + argv,
                           workdir, deadline)
        record["failures"] = output_failures(command, record, workdir, expect)
        records.append(record)
        if "wall_s" not in record:        # killed or out of time: stop here
            break
    complete = len(records) == len(commands) and all("wall_s" in r for r in records)
    sample = {"traced": traced, "complete": complete, "commands": records}
    if complete:
        sample["wall_s"] = sum(r["wall_s"] for r in records)
        sample["scaled_wall_s"] = sum(scaled(r["wall_s"], r["wall_gauge"]) for r in records)
        sample["gauge_s"] = statistics.mean(r["wall_gauge"]["mean_s"] for r in records)
        sample["maxrss_mb"] = max(r["maxrss_mb"] for r in records)
    return sample


def run_samples(commands, argvs, expects, seconds, trace, workdir, deadline):
    """Samples within `seconds`: another starts only when one more of the
    last one's length still fits, so a run ends near `seconds` whatever the
    workload.  At least two samples run; with trace, untraced and traced
    samples alternate."""
    samples = []
    start = time.monotonic()
    while True:
        traced = trace and len(samples) % 2 == 1
        began = time.monotonic()
        samples.append(run_sample(commands, argvs, expects, traced, workdir, deadline))
        if not samples[-1]["complete"]:
            break
        now = time.monotonic()
        if len(samples) >= 2 and now - start + (now - began) > seconds:
            break
    return samples


# ---------------------------------------------------------------- metrics

def scaled(seconds: float, gauge: dict) -> float:
    """A time measured with the gauge ticking, without the ticks, at the
    host speed on which the gauge kernel takes REFERENCE_S."""
    return (seconds - gauge["total_s"]) * REFERENCE_S / gauge["mean_s"]


def span_totals(span_lists):
    """Self seconds and calls per span name, and the span notes by key,
    over the span lists of several children."""
    self_s, calls, notes = defaultdict(float), defaultdict(int), defaultdict(list)
    for spans in span_lists:
        own = [end - start for _, start, end, _, _ in spans]
        for _, start, end, parent, _ in spans:
            if parent is not None:
                own[parent] -= end - start
        for (name, _, _, _, note), t in zip(spans, own):
            self_s[name] += t
            calls[name] += 1
            for key, value in note.items():
                notes[key].append(value)
    return self_s, calls, notes


def health(report: dict, notes: dict) -> dict:
    """The health numbers one command computes."""
    out = {}
    checks = report.get("checks", {})
    if checks:
        out["basis.orthogonality_defect"] = checks["orthogonality_defect"]
        out["system.flux_asymmetry_max"] = max(checks["flux_asymmetry"].values())
    comps = report.get("diagnostics", {}).get("component_diagnostics", [])
    if comps:
        out["channel.residual_max"] = max(d["residual"] for d in comps)
        out["channel.flux_balance_err_max"] = max(
            abs(d["flux_balance"] - d["flux_balance_target"]) for d in comps)
    # the scan report omits the reflection-form eigenvalue; the spans keep it
    obc = [e for bc, e in zip(notes["bc"], notes["min_schur_eig"]) if bc == "obc"]
    if obc:
        out["stability.min_schur_eig_obc"] = min(obc)
    if "relative_growth" in report:
        out["channel.march_relative_growth"] = report["relative_growth"]
    return out


def layer_metrics(sample: dict) -> dict:
    records = sample["commands"]
    self_s, calls, notes = span_totals(r["spans"] for r in records)
    reports = [json.loads(r["report"]) if r["rc"] == 0 else {} for r in records]
    # each child's spans[0] is the root around cli.main: its self time is the CLI's own
    out = {"cli.self_s": self_s.pop("cli"),
           "trace.wall_s": sum(r["spans"][0][2] - r["spans"][0][1] for r in records)}
    for name in NAMED_SPANS:
        out[f"{name}.self_s"] = self_s.pop(name, 0.0)
    out["other.self_s"] = sum(self_s.values())
    for name in COUNTED_SPANS:
        out[f"{name}.calls"] = calls[name]
    out["channel.K_rows"] = sum(notes["K_rows"])
    out["channel.K_nnz"] = sum(notes["K_nnz"])
    steps = sum(report.get("steps", 0) for report in reports)
    out["channel.march_steps"] = steps
    out["channel.march_step_us"] = (
        1e6 * out["channel.time_march_energy.self_s"] / steps if steps else 0.0)
    # 0 where none of the workload's commands computes the number
    out.update(dict.fromkeys(HEALTH, 0.0))
    for record, report in zip(records, reports):
        out.update(health(report, span_totals([record["spans"]])[2]))
    return out


def median_of(rows: list) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def children(samples) -> list:
    return [record for sample in samples for record in sample["commands"]]


def end_to_end_metrics(samples, probes) -> dict:
    timed = [s for s in samples if not s["traced"] and s["complete"]]
    ran = children(samples)
    setups = [scaled(r["setup_s"], r["setup_gauge"]) for r in probes + ran if "setup_s" in r]
    return {
        "wall_s": statistics.median(s["scaled_wall_s"] for s in timed),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(s["maxrss_mb"] for s in timed),
        "success_rate": sum(1 for r in ran if not r["failures"]) / len(ran),
    }


def per_layer_metrics(samples) -> dict:
    traced = [s for s in samples if s["traced"] and s["complete"]]
    untraced = [s for s in samples if not s["traced"] and s["complete"]]
    out = median_of([layer_metrics(s) for s in traced])
    out["raw.wall_s"] = statistics.median(s["wall_s"] for s in untraced)
    out["trace.overhead_s"] = (statistics.median(s["scaled_wall_s"] for s in traced)
                               - statistics.median(s["scaled_wall_s"] for s in untraced))
    out["host.gauge_us"] = 1e6 * statistics.median(
        s["gauge_s"] for s in samples if s["complete"])
    return out


def with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


# ------------------------------------------------------------ environment

def environment(library_env: dict, workload: str, seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "momentbc").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    blas_threads = {k: v for k, v in child_env().items() if k.endswith("_NUM_THREADS")}
    return {
        **library_env,
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
        "seed_used": uses_seed(workload),
        "inputs": ("energy-march draws its random initial state from the seed; "
                   "the other inputs are deterministic" if uses_seed(workload)
                   else "deterministic; the seed does not enter"),
    }


# -------------------------------------------------------------------- run

def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Set up, sample, check; returns (result, results-file record)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    commands = WORKLOADS[name]
    argvs = [[a.replace("{seed}", str(seed)) for a in (c.smoke_argv if smoke else c.argv)]
             for c in commands]
    expects = [c.smoke_expect if smoke else c.expect for c in commands]
    workdir = OUT / "work" / name
    workdir.mkdir(parents=True, exist_ok=True)

    run_child(["--import-only"], workdir, deadline)   # writes bytecode, warms file cache
    probes = [run_child(["--import-only"], workdir, deadline) for _ in range(SETUP_PROBES)]
    if any("env" not in p for p in probes):
        raise RuntimeError(f"cannot import momentbc from {SRC}: {probes[-1].get('error')}")
    env = environment(probes[0]["env"], name, seed)

    samples = run_samples(commands, argvs, expects, seconds, trace, workdir, deadline)
    ran = children(samples)
    failed = sum(1 for r in ran if r["failures"])
    if trace:
        metrics = with_units(per_layer_metrics(samples), PER_LAYER)
    else:
        metrics = with_units(end_to_end_metrics(samples, probes), END_TO_END)
    result = {"correct": failed == 0, "attempted": len(ran), "failed": failed,
              "metrics": metrics}
    details = {"env": env, "argv": argvs, "result": result,
               "setup_probes_s": [p["setup_s"] for p in probes],
               "samples": [{**s, "commands": [
                   {k: v for k, v in r.items() if k not in ("report", "spans")}
                   for r in s["commands"]]} for s in samples],
               "spans": [[r["spans"] for r in s["commands"] if "spans" in r]
                         for s in samples if s["traced"]]}
    return result, details


def write_results(name, seed, trace, details, tag=""):
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}{tag}_seed{seed}_trace{int(trace)}.json"
    path.write_text(json.dumps(details, indent=1))


def smoke() -> int:
    """Every workload at reduced size, traced and untraced: each metric of
    BENCHMARK.json must appear with its unit and every check pass."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("workloads differ from BENCHMARK.json")
    for name in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, details = run(name, 1, 0.0, trace, smoke=True)
            write_results(name, 1, trace, details, tag="-smoke")
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{name}: {metric['name']} {metric['unit']} -> {got}")
            if set(result["metrics"]) != {m["name"] for m in spec[key]}:
                problems.append(f"{name}: metrics differ from BENCHMARK.json {key}")
            if not result["correct"]:
                problems.append(f"{name}: failed checks "
                                f"{[s['failures'] for s in details['samples']]}")
            print(f"smoke {name} trace={int(trace)}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} attempted, {result['failed']} failed")
    for problem in problems:
        print("FAIL", problem)
    print("smoke:", "FAIL" if problems else "ok")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at reduced size and check the metrics")
    args = parser.parse_args(argv)
    if not (SRC / "momentbc" / "cli.py").is_file():
        print(f"run.py: no momentbc sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    write_results(args.workload, args.seed, args.trace, details)
    print(json.dumps({"env": details["env"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
