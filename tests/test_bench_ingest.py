"""The benchmark's ingest workload at its tiny size, so that its output check
runs on every commit: episodes written with ``save_episodes`` load back
equal through ``load_episodes``."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tiny_ingest_workload_passes_its_checks():
    argv = ["--workload", "ingest", "--size", "tiny", "--seconds", "0.3", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
