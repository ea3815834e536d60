"""Smoke runs of the benchmark harness, so that it cannot rot unnoticed.

Runs the gap_blowup and field_points workloads on their smoke inputs for
one second each, untraced, and checks that every operation ran and
matched its reference: the deepest blow-up maximum and the potentials
and mode gradients at general points against Kelvin images.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _smoke_run(workload):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", "0", "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0


def test_gap_blowup_smoke_run_is_correct():
    _smoke_run("gap_blowup")


def test_field_points_smoke_run_is_correct():
    _smoke_run("field_points")
