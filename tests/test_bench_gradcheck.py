"""The benchmark's gradcheck workload at its tiny size, so that its output
checks run on every commit: the gradient check of every mode and of the
trajectory loss passes at the benchmark's tolerance."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tiny_gradcheck_workload_passes_its_checks():
    argv = ["--workload", "gradcheck", "--size", "tiny", "--seconds", "0.3", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
