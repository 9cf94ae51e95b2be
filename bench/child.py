"""One benchmark sample in a fresh interpreter.

    python3 child.py [--trace] -- <momentbc CLI arguments>
    python3 child.py --import-only

Times the import of ``momentbc.cli`` (set-up) and one in-process
``momentbc.cli.main(argv)`` call, each with the host-speed gauge ticking
(gauge.py), and prints one JSON record on stdout: set-up and wall
seconds with the gauge's figures over each, exit code, the CLI's captured
report, peak RSS and, with --trace, the layer spans.  run.py starts it with PYTHONPATH
pointing at the source tree.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback

from gauge import Gauge


def _library_env() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")}}


def _call_main(main, argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:          # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:                  # a crash is a failed sample, still timed
        traceback.print_exc()
        return 3


def main(args) -> dict:
    opts, cli_argv = _split(args)
    gauge = Gauge()
    gauge.start()
    t0 = time.perf_counter()
    import momentbc.cli as cli
    record = {"setup_s": time.perf_counter() - t0, "setup_gauge": gauge.stop()}
    if "--import-only" in opts:
        record["env"] = _library_env()
        return record
    target = cli.main
    tracer = None
    if "--trace" in opts:
        import tracer as tracing
        tracer = tracing.install()
        target = tracer.wrap("cli", cli.main)
    out = io.StringIO()
    gauge.start()
    t1 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = _call_main(target, cli_argv)
    record["wall_s"] = time.perf_counter() - t1
    record["wall_gauge"] = gauge.stop()
    record["rc"] = rc
    record["report"] = out.getvalue()
    record["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        record["spans"] = tracer.spans
    return record


def _split(args):
    if "--" in args:
        i = args.index("--")
        return args[:i], args[i + 1:]
    return args, []


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
