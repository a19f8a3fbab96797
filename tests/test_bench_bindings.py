"""The benchmark's tracer (perfbench/tracer.py) wraps ``viewpilot``
functions by swapping the attribute in each module that calls them. A
binding that moves or goes away leaves its metric at zero and fails a traced
check, so every one it expects must be in place, and ``restore`` must put
each original back."""

from pathlib import Path

import numpy as np

from viewpilot import agent, diffcore, evaluation, gradcheck, observation, training
from viewpilot.config import RunConfig
from viewpilot.geometry import ViewingAngle

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = (agent, diffcore, evaluation, gradcheck, observation, training, diffcore.TanhRnnCell)


def _bindings():
    """Every attribute of the traced modules, by identity."""
    return {(owner.__name__, name): id(v) for owner in MODULES for name, v in vars(owner).items()}


def test_tracer_finds_every_binding_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    before = _bindings()
    traced = tracer.Tracer()
    try:
        traced.install()
        assert traced.missing == []
        assert _bindings() != before
    finally:
        traced.restore()
    assert _bindings() == before


def test_traced_cell_steps_count_every_kernel_step(monkeypatch):
    """The tracer counts the cell's step and reverse step per call, so the
    training, gradient-check and online paths must reach them through
    ``TanhRnnCell.step`` / ``backward_step``, passing ``out`` positionally."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    config = RunConfig()
    arrays = [observation.episode_arrays(ep) for ep in observation.generate_dataset(config.scene, 3, 2)]
    windows = [training.Window(0, 0, 50), training.Window(1, 0, 50), training.Window(1, 50, 80)]
    model = agent.PilotModel(config.dims(), np.random.default_rng(0))
    with tracer.Tracer() as traced:
        assert traced.missing == []
        training.train_step(model, arrays, windows, config.train, 0.02, np.random.default_rng(1))
        after_train = dict(traced.stats)
        gradcheck.check_model("joint", 0)
        after_check = dict(traced.stats)
        frame = observation.synth_scene(config.scene, 4).frames[0]
        agent.pilot_step(frame, agent.initial_state(model, ViewingAngle(0.0, 0.0)), model)

    def grew(name, before, after=None):
        after = traced.stats if after is None else after
        return after.get(f"diffcore.{name}.calls", 0) - before.get(f"diffcore.{name}.calls", 0)

    # two length groups, T = 50 and 30: T steering steps plus one branch step each
    assert grew("regressor_cell_step", {}, after_train) == 51 + 31
    assert grew("selector_backward_step", {}, after_train) == 50 + 30
    assert grew("regressor_backward_step", {}, after_train) == 50 + 30
    for name in ("regressor_cell_step", "selector_backward_step", "regressor_backward_step"):
        assert grew(name, after_train, after_check) > 0
    assert grew("selector_cell_step", after_check) == 1


def test_traced_benchmark_counts_one_iou_call_per_mean_overlap(monkeypatch):
    """``mean_overlap`` reaches the IoU through ``evaluation.nfov_iou``, the
    binding the tracer counts, once per method and episode."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    episodes = observation.generate_dataset(RunConfig().scene, 3, 3)
    with tracer.Tracer() as traced:
        assert traced.missing == []
        methods = evaluation.build_methods(["center_hold", "gt_replay"])
        evaluation.benchmark(methods, episodes)
    assert traced.stats["geometry.nfov_iou.calls"] == 6
    assert traced.stats["evaluation.mean_overlap.calls"] == 6
