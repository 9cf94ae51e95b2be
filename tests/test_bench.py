"""The benchmark's traced sample runs against the current library.

bench/tracer.py wraps library functions from outside the package and reads
some of their arguments and results: channel.spla, the positional B of
stability.check_stability, BoundaryOperator.B and .kind, and
StabilityReport.min_schur_eig.  A change under src/ that breaks one of
them shows here rather than only in a benchmark run.
"""
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
CHILD = os.path.join(ROOT, "bench", "child.py")
SRC = os.path.join(ROOT, "src")

COMMANDS = {
    "check-stability": ["check-stability", "--theory", "G20", "--scan-chi", "0.2:1.0:2"],
    "energy-march": ["energy-march", "--theory", "G20", "--homogeneous", "--init",
                     "random", "--seed", "1", "--grid", "32", "--t-final", "2",
                     "--out", "trace.csv"],
}


def traced_sample(tmp_path, argv) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, CHILD, "--trace", "--", *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_traced_sample_records_layer_spans(tmp_path, command):
    record = traced_sample(tmp_path, COMMANDS[command])
    assert record["rc"] == 0, record["report"]
    names = [span[0] for span in record["spans"]]
    # the system holds one decomposition, built once per command
    assert names.count("system.characteristic_decomposition") == 1
    if command == "check-stability":
        # and one chi-free gain per wall kind, however many chi it samples
        assert names.count("boundary.assemble_mbc") == 1
        assert names.count("boundary.assemble_obc") == 1
    checks = [span[4] for span in record["spans"]
              if span[0] == "stability.check_stability"]
    if command == "check-stability":
        # the chi-free certificates judge every sample; one check per kind
        # verifies them
        assert sorted(note["bc"] for note in checks) == ["mbc", "obc"]
        assert all(isinstance(note["min_schur_eig"], float) for note in checks)
    else:
        assert checks == []
        assert (tmp_path / "trace.csv").exists()
