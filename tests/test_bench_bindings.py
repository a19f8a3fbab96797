"""The benchmark's tracer (perfbench/tracer.py) wraps ``viewpilot``
functions by swapping the attribute in each module that calls them. A
binding that moves or goes away leaves its metric at zero and fails a traced
check, so every one it expects must be in place, and ``restore`` must put
each original back."""

from pathlib import Path

from viewpilot import agent, diffcore, evaluation, gradcheck, observation, training

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
