"""Smoke runs of the benchmark harness, so that it cannot rot unnoticed.

Runs the gap_blowup, field_points, spectra_ladder and cli_session
workloads on their smoke inputs for one second each, untraced, and checks
that every operation ran and matched its reference: the deepest blow-up
maximum, the potentials and mode gradients at general points against
Kelvin images, the capacitance, spectra and response-curve cells
(response peaks on the resonances, |b| = 0 for equal spheres) against
mpmath image sums, and the output of cold `bisphere` processes. One
traced spectra_ladder run checks that the span tracer still wraps the
functions it times and reports every per-layer metric of BENCHMARK.json."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _smoke_run(workload, trace=0):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    return result


def test_gap_blowup_smoke_run_is_correct():
    assert _smoke_run("gap_blowup")["failed"] == 0


def test_field_points_smoke_run_is_correct():
    assert _smoke_run("field_points")["failed"] == 0


def test_spectra_ladder_smoke_run_is_correct():
    result = _smoke_run("spectra_ladder")
    # a smoke round is 4 ordinary cells and the 2 cells the benchmark names
    # as must-fail, (1, 2) at eps = 1e-13 and 1e-14, whose capacitance
    # series exceeds its term cap (TruncationCapError); so exactly a third
    # of the operations fail. The benchmark revision of ROADMAP item 1
    # turns those two into ordinary cells, which changes this count.
    assert result["attempted"] > 0
    assert 3 * result["failed"] == result["attempted"]


def test_cli_session_smoke_run_is_correct():
    # cold `capacitance --eps 1e-10` and `field` processes, checked against
    # mpmath by the benchmark's own CLI check
    result = _smoke_run("cli_session")
    assert result["attempted"] > 0
    assert result["failed"] == 0


def test_traced_spectra_ladder_smoke_run_reports_the_per_layer_metrics():
    result = _smoke_run("spectra_ladder", trace=1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(result["metrics"]) == [m["name"] for m in spec["per_layer"]]
