"""The benchmark's own tests, on the tiny size of every workload.

    python3 -m pytest -q perfbench/selftest.py

They run the runner as a benchmark harness does (one process per run) and
check that it emits exactly what BENCHMARK.json declares, that quality
figures repeat bit for bit, and that tracing leaves the program untouched.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import clock  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DIRECTION = {"higher": "(higher is better)", "lower": "(lower is better)"}


def invoke(workload, trace, seed=2026, cwd=ROOT, runner=BENCH_DIR / "run.py"):
    cmd = [
        sys.executable, str(runner), "--workload", workload, "--seed", str(seed),
        "--seconds", "0.5", "--trace", str(trace), "--size", "tiny",
    ]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=180)


class Run:
    def __init__(self, proc):
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        self.stdout = proc.stdout
        self.result = json.loads(lines[-1])
        self.record = json.loads(next(l for l in lines if l.startswith("record: "))[len("record: "):])


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload, trace, seed=2026):
        key = (workload, trace, seed)
        if key not in cache:
            cache[key] = Run(invoke(workload, trace, seed))
        return cache[key]

    return get


def test_benchmark_json_matches_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == tracer.per_layer_spec()
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert set(run.RATE_SOURCES) == set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_untraced_run_emits_every_end_to_end_metric(runs, workload):
    r = runs(workload, 0)
    assert set(r.result) == {"correct", "attempted", "failed", "metrics"}
    assert r.result["correct"] and r.result["failed"] == 0 and r.result["attempted"] >= 1
    metrics = r.result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0
        assert any(
            line.split()[:1] == [m["name"]] and line.endswith(DIRECTION[m["better"]])
            for line in r.stdout.splitlines()
        ), m["name"]
    for name in r.record["named"]:
        assert name in run.NAMED_UNITS
    for key in ("threads", "nproc", "python", "numpy", "blas", "commit", "src_lines"):
        assert key in r.record["meta"]
    assert set(r.record["meta"]["threads"].values()) == {"1"}
    assert r.record["probe_before"]["probe_median_s"] > 0 and r.record["probe_after"]["probe_median_s"] > 0
    assert r.record["host"]["probes"] > 0


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_emits_every_per_layer_metric(runs, workload):
    r = runs(workload, 1)
    assert r.result["correct"] and r.result["failed"] == 0
    metrics = r.result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    # Each workload drives the layers it is named for.
    driven = {
        "train": ("training.train_step.calls", "diffcore.regressor_cell_step.rows", "diffcore.sgd_step.calls"),
        "eval": ("evaluation.offline_dp.calls", "agent.pilot_step.calls", "observation.stream_episodes.calls"),
        "ingest": ("observation.synth_scene.calls", "observation.save_episodes.bytes", "observation.load_episodes.calls"),
        "gradcheck": ("gradcheck.surrogate_loss.calls", "diffcore.gradient_check.calls", "gradcheck.check_model.joint.s"),
    }[workload]
    for name in driven:
        assert metrics[name]["value"] > 0, name
    if workload == "ingest":
        assert metrics["training.train_step.calls"]["value"] == 0


def test_train_quality_repeats_bit_for_bit(runs):
    first, second, traced = runs("train", 0), Run(invoke("train", 0)), runs("train", 1)
    for name in ("agent_mo", "agent_mvd"):
        assert first.record["named"][name] == second.record["named"][name]
        assert first.record["named"][name] == traced.record["named"][name]
    assert first.record["quality"] == second.record["quality"] == traced.record["quality"]


def test_other_seed_gives_other_inputs(runs):
    assert runs("train", 0).record["quality"] != runs("train", 0, seed=11).record["quality"]


def _namespace_snapshot():
    from viewpilot import agent, diffcore, evaluation, gradcheck, observation, training

    owners = (agent, diffcore, evaluation, gradcheck, observation, training, diffcore.TanhRnnCell)
    return {(o.__name__, k): id(v) for o in owners for k, v in list(vars(o).items())}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tracer_restores_every_attribute(tmp_path, workload):
    before = _namespace_snapshot()
    size = workloads.SIZES["tiny"]
    setup, measure = workloads.WORKLOADS[workload]
    checks = workloads.Checks()
    with tracer.Tracer() as trace:
        assert not trace.missing
        assert _namespace_snapshot() != before
        measure(size, 2026, setup(size, 2026, tmp_path), checks, clock.HostClock(), 0.1, True)
    assert _namespace_snapshot() == before
    assert checks.failed == 0 and checks.attempted > 0


def test_default_seed_reproduces_reference_config():
    from viewpilot.config import load_run_config

    config = load_run_config(ROOT / "configs" / "reference.json")
    size = workloads.SIZES["reference"]
    assert size.scene == config.scene
    assert size.dims == config.dims()
    assert size.train == config.train
    assert (size.train_count, size.test_count) == (config.data.train_count, config.data.test_count)
    assert workloads.REFERENCE_DATA_SEED == config.data.seed
    assert (workloads.EVAL_GRID_STEP, workloads.EVAL_DP_SMOOTH_WEIGHT, workloads.EVAL_H_SPAN) == (
        config.eval.grid_step, config.eval.dp_smooth_weight, config.eval.h_span,
    )


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = invoke("train", 0, cwd=tmp_path, runner=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
