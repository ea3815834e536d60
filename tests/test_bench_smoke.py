"""A smoke run of the benchmark harness, so that it cannot rot unnoticed.

Runs the gap_blowup workload on its smoke inputs for one second, untraced,
and checks that every operation ran and matched its reference.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_gap_blowup_smoke_run_is_correct():
    cmd = [sys.executable, "bench/run.py", "--workload", "gap_blowup", "--seed", "7",
           "--seconds", "1", "--trace", "0", "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
