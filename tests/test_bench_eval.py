"""The benchmark's eval workload at its tiny size, so that its output checks
run on every commit: the streamed `viewpilot pilot` trajectory file equals
online ``pilot_step``, which equals the agent method of the benchmark."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_eval_workload_passes_its_checks(trace):
    """Traced, the run also fails on a binding the tracer cannot swap and on
    quality figures that differ from the untraced run's."""
    argv = ["--workload", "eval", "--size", "tiny", "--seconds", "0.3", "--trace", trace]
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
