"""Per-layer tracing by attribute swapping.

The tracer wraps public functions of ``viewpilot`` from the outside: each
wrapper replaces the attribute in the namespace of the module that *calls*
the function (a ``from .x import f`` binding lives in the caller), records
busy time and counts, and is removed again by :meth:`Tracer.restore`.
Nothing under ``src/`` knows it is being traced.

Times are inclusive: a span contains the spans of the functions it calls
(``load_episodes`` contains ``stream_episodes``, ``train_step`` contains
``rollout_window``). Metric names follow ``<module>.<function>.<kind>``.
"""

from __future__ import annotations

import os
from collections import defaultdict
from time import perf_counter

from viewpilot import agent, diffcore, evaluation, gradcheck, observation, training
from viewpilot.errors import NumericsError

# (metric stem, defining module, attribute, consumer modules swapped)
_TIMED = [
    ("training.train_step", training, "train_step", [training]),
    ("training.pack_windows", training, "pack_windows", [training]),
    ("training.rollout_window", training, "rollout_window", [training, gradcheck]),
    ("training.rollout_loss", training, "rollout_loss", [training]),
    ("training.policy_upstream", training, "policy_upstream", [training]),
    ("training.backward_window", training, "backward_window", [training, gradcheck]),
    # train_step imports these inside its body, so they resolve on diffcore.
    ("diffcore.clip_gradients", diffcore, "clip_gradients", [diffcore]),
    ("diffcore.sgd_step", diffcore, "sgd_step", [diffcore]),
    ("diffcore.gradient_check", diffcore, "gradient_check", [gradcheck]),
    ("agent.pilot_step", agent, "pilot_step", [agent]),
    ("agent.pilot_episode", agent, "pilot_episode", [agent, evaluation]),
    ("evaluation.mean_overlap", evaluation, "mean_overlap", [evaluation]),
    ("evaluation.mean_velocity_difference", evaluation, "mean_velocity_difference", [evaluation]),
    ("evaluation.offline_dp", evaluation, "offline_dp", [evaluation]),
    ("observation.synth_scene", observation, "synth_scene", [observation, evaluation, gradcheck]),
    ("observation.save_episodes", observation, "save_episodes", [observation]),
    ("observation.load_episodes", observation, "load_episodes", [observation]),
    ("observation.stream_episodes", observation, "stream_episodes", [observation]),
    (
        "observation.episode_arrays",
        observation,
        "episode_arrays",
        [observation, training, evaluation, gradcheck],
    ),
    ("gradcheck.surrogate_loss", training, "surrogate_loss", [gradcheck]),
    ("gradcheck.check_trajectory_loss", gradcheck, "check_trajectory_loss", [gradcheck]),
]

CELL_PREFIXES = ("selector", "regressor")
METHOD_NAMES = (
    "agent",
    "selector_only",
    "center_hold",
    "greedy_salient",
    "offline_dp",
    "gt_replay",
)
CHECK_MODES = ("selector", "regressor", "joint")


def _count_unit(kind: str) -> str:
    return {"s": "s", "calls": "count", "rows": "rows", "bytes": "bytes"}[kind]


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []

    def add(stem, kinds):
        for kind in kinds:
            out.append((f"{stem}.{kind}", _count_unit(kind), "higher" if kind == "rows" else "lower"))

    for stem, *_ in _TIMED:
        if stem.startswith("training."):
            add(stem, ("s", "calls"))
    out.append(("training.numerics_aborts", "count", "lower"))
    for prefix in CELL_PREFIXES:
        add(f"diffcore.{prefix}_cell_step", ("s", "calls", "rows"))
    for prefix in CELL_PREFIXES:
        add(f"diffcore.{prefix}_backward_step", ("s", "calls", "rows"))
    add("diffcore.clip_gradients", ("s", "calls"))
    out.append(("diffcore.clip_rate", "ratio", "lower"))
    add("diffcore.sgd_step", ("s", "calls"))
    add("diffcore.gradient_check", ("s", "calls"))
    add("agent.pilot_step", ("s", "calls"))
    add("agent.pilot_episode", ("s", "calls"))
    for method in METHOD_NAMES:
        add(f"evaluation.method.{method}", ("s",))
    add("evaluation.mean_overlap", ("s", "calls"))
    add("evaluation.mean_velocity_difference", ("s", "calls"))
    add("evaluation.offline_dp", ("s", "calls"))
    out.append(("geometry.nfov_iou.calls", "count", "lower"))
    add("observation.synth_scene", ("s", "calls"))
    add("observation.save_episodes", ("s", "calls", "bytes"))
    add("observation.load_episodes", ("s", "calls"))
    add("observation.stream_episodes", ("s", "calls"))
    add("observation.episode_arrays", ("s", "calls"))
    add("gradcheck.surrogate_loss", ("s", "calls"))
    for mode in CHECK_MODES:
        add(f"gradcheck.check_model.{mode}", ("s",))
    add("gradcheck.check_trajectory_loss", ("s",))
    out.append(("trace.overhead_pct", "%", "lower"))
    return out


class Tracer:
    """Swaps traced attributes in on :meth:`install` and back on :meth:`restore`.

    ``missing`` lists attributes that no longer exist or were already
    replaced in a consumer; their metrics then stay at zero.
    """

    def __init__(self):
        self.stats: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def _swap(self, owner, attr: str, original, wrapper) -> None:
        if getattr(owner, attr, None) is not original:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        special = {
            "training.train_step": self._train_step,
            "diffcore.clip_gradients": self._clip_gradients,
            "observation.save_episodes": self._save_episodes,
            "observation.stream_episodes": self._stream_episodes,
        }
        for stem, home, attr, consumers in _TIMED:
            original = getattr(home, attr, None)
            if original is None:
                self.missing.append(f"{home.__name__}.{attr}")
                continue
            make = special.get(stem, self._timed)
            wrapper = make(stem, original)
            for consumer in consumers:
                self._swap(consumer, attr, original, wrapper)
        cell = diffcore.TanhRnnCell
        for owner, attr, make in (
            (cell, "step", lambda fn: self._cell(fn, "cell_step")),
            (cell, "backward_step", lambda fn: self._cell(fn, "backward_step")),
            (gradcheck, "check_model", self._check_model),
            (evaluation, "build_methods", self._build_methods),
            (evaluation, "nfov_iou", self._counted),
        ):
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            self._swap(owner, attr, original, make(original))
        return self

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- wrappers -----------------------------------------------------------

    def _timed(self, stem, fn):
        stats = self.stats

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stats[stem + ".s"] += perf_counter() - t0
                stats[stem + ".calls"] += 1

        return wrapper

    def _train_step(self, stem, fn):
        timed = self._timed(stem, fn)
        stats = self.stats

        def wrapper(*args, **kwargs):
            try:
                return timed(*args, **kwargs)
            except NumericsError:
                stats["training.numerics_aborts"] += 1
                raise

        return wrapper

    def _clip_gradients(self, stem, fn):
        stats = self.stats

        def wrapper(params, max_norm):
            t0 = perf_counter()
            norm = fn(params, max_norm)
            stats[stem + ".s"] += perf_counter() - t0
            stats[stem + ".calls"] += 1
            stats["diffcore.clipped"] += norm > max_norm
            return norm

        return wrapper

    def _save_episodes(self, stem, fn):
        timed = self._timed(stem, fn)
        stats = self.stats

        def wrapper(episodes, path):
            timed(episodes, path)
            stats[stem + ".bytes"] += os.path.getsize(path)

        return wrapper

    def _stream_episodes(self, stem, fn):
        """Generator-aware: time is spent while the caller advances the
        outer generator or any frame iterator it yielded."""
        stats = self.stats
        key = stem + ".s"

        def timed_iter(it):
            while True:
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    stats[key] += perf_counter() - t0
                    return
                stats[key] += perf_counter() - t0
                yield item

        def wrapper(path):
            stats[stem + ".calls"] += 1
            for header, frames in timed_iter(fn(path)):
                yield header, timed_iter(frames)

        return wrapper

    def _cell(self, fn, suffix):
        """Keyed on the cell's parameter-name prefix (selector / regressor)."""
        stats = self.stats

        def wrapper(cell, first, *args):
            t0 = perf_counter()
            try:
                return fn(cell, first, *args)
            finally:
                stem = "diffcore." + cell.w_xh.name.split(".", 1)[0] + "_" + suffix
                stats[stem + ".s"] += perf_counter() - t0
                stats[stem + ".calls"] += 1
                stats[stem + ".rows"] += first.shape[0] if first.ndim == 2 else 1

        return wrapper

    def _check_model(self, fn):
        stats = self.stats

        def wrapper(mode, *args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(mode, *args, **kwargs)
            finally:
                stats[f"gradcheck.check_model.{mode}.s"] += perf_counter() - t0

        return wrapper

    def _build_methods(self, fn):
        def wrapper(*args, **kwargs):
            table = fn(*args, **kwargs)
            return {
                name: self._timed(f"evaluation.method.{name}", method) for name, method in table.items()
            }

        return wrapper

    def _counted(self, fn):
        stats = self.stats

        def wrapper(*args, **kwargs):
            stats["geometry.nfov_iou.calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- report -------------------------------------------------------------

    def metrics(self, overhead_pct: float, time_scale: float) -> dict[str, dict]:
        """Every per-layer metric, zero where the layer did no work.

        Busy times are multiplied by ``time_scale``, the host clock's factor
        to reference host speed during the traced run.
        """
        stats = {
            name: value * time_scale if name.endswith(".s") else value
            for name, value in self.stats.items()
        }
        clip_calls = stats.get("diffcore.clip_gradients.calls", 0)
        stats["diffcore.clip_rate"] = (
            stats.get("diffcore.clipped", 0) / clip_calls if clip_calls else 0.0
        )
        stats["trace.overhead_pct"] = overhead_pct
        return {
            name: {"value": float(stats.get(name, 0.0)), "unit": unit}
            for name, unit, _ in per_layer_spec()
        }
