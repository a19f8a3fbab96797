"""The benchmark's four workloads: train, eval, ingest and gradcheck.

Each workload has a ``setup`` that builds its inputs from the seed and a
``measure`` that times calls into ``viewpilot``'s public functions from
outside. ``measure`` runs for a time budget, or, with ``fixed=True``, does
a fixed amount of work (used by the traced run so that per-layer counts
repeat exactly). It returns the workload's named metrics and a quality
fingerprint that a traced and an untraced run must reproduce bit for bit.

Throughputs come from many per-unit samples (steps, passes, shards) with a
median, each sample scaled to the reference host speed by the host-speed
probes taken around and during it (see clock.py).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

from viewpilot import agent, evaluation, gradcheck, observation, training
from viewpilot.agent import ModelDims
from viewpilot.errors import NumericsError
from viewpilot.observation import SceneConfig
from viewpilot.training import TrainConfig

# Seeds of configs/reference.json; the default --seed reproduces them.
REFERENCE_DATA_SEED = 2026
REFERENCE_TEST_SEED = 99
REFERENCE_MODEL_SEED = 7
GRADCHECK_TOLERANCE = 1e-4


@dataclass(frozen=True)
class Size:
    """Everything that sets how much work one unit of a workload is."""

    scene: SceneConfig
    dims: ModelDims
    train: TrainConfig
    train_count: int
    test_count: int
    quality_epochs: int  # epochs trained before the agent's MO/MVD are taken
    check_dims: ModelDims
    check_frames: int
    shard_episodes: int  # episodes per ingest file
    setup_repeats: int


# Values of configs/reference.json, spelled out so that the benchmark's
# inputs do not change when a later commit edits that file.
_REF_SCENE = SceneConfig(
    frames=200, objects=4, slots=8, appearance_dim=16, motion_bins=12,
    position_noise=1.5, appearance_noise=0.3, main_score_bias=1.0,
)
_REF_TRAIN = dict(
    batch_size=10, max_epochs=100, seq_len=50, smooth_lambda=3.0, lr_initial=0.02,
    lr_decay=0.9, lr_period=50, q_samples=2, eta=40.9, seed=REFERENCE_MODEL_SEED,
    baseline=True, grad_clip=5.0, pg_weight=7.5, pg_slot_scaling=True, checkpoint_interval=50,
)
EVAL_GRID_STEP = 30.0
EVAL_DP_SMOOTH_WEIGHT = 1.0
EVAL_H_SPAN = 65.5

SIZES = {
    "reference": Size(
        scene=_REF_SCENE,
        dims=ModelDims(16, 12, 8, selector_hidden=32, regressor_hidden=8),
        train=TrainConfig(**_REF_TRAIN),
        train_count=50,
        test_count=10,
        quality_epochs=20,
        check_dims=gradcheck.CHECK_DIMS,
        check_frames=gradcheck.CHECK_FRAMES,
        shard_episodes=2,
        setup_repeats=3,
    ),
    # A seconds-long version of every workload, for the benchmark's own tests.
    "tiny": Size(
        scene=SceneConfig(frames=20, objects=2, slots=3, appearance_dim=4, motion_bins=4),
        dims=ModelDims(4, 4, 3, selector_hidden=8, regressor_hidden=4),
        train=TrainConfig(**{**_REF_TRAIN, "batch_size": 2, "seq_len": 10}),
        train_count=4,
        test_count=2,
        quality_epochs=2,
        check_dims=ModelDims(4, 4, 3, selector_hidden=4, regressor_hidden=4),
        check_frames=4,
        shard_episodes=2,
        setup_repeats=2,
    ),
}


def derive_seed(seed: int, reference_value: int) -> int:
    """A seed that equals ``reference_value`` when ``seed`` is the reference data seed."""
    return (seed - REFERENCE_DATA_SEED + reference_value) % (1 << 32)


class Checks:
    """Output checks, each counted as one operation attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def _median(values) -> float:
    return float(statistics.median(values))


def rate(work_per_unit: float, unit_seconds) -> float:
    """Work per second from per-unit timings, at the median unit time."""
    return work_per_unit / _median(unit_seconds)


def _trajectory_ok(traj, length: int) -> bool:
    arr = np.array([[a.azimuth, a.elevation] for a in traj], dtype=np.float64)
    return arr.shape == (length, 2) and bool(np.all(np.isfinite(arr)))


def _check_rows(rows, checks: Checks, methods) -> None:
    checks.check([r.method for r in rows] == list(methods), "benchmark returns one row per method")
    for row in rows:
        checks.check(
            0.0 <= row.mo <= 1.0 and row.mvd >= 0.0 and math.isfinite(row.mvd),
            f"{row.method} row in range",
        )
        if row.method == "gt_replay":
            checks.check(row.mo == 1.0, "gt_replay MO is exactly 1")
        if row.method == "center_hold":
            checks.check(row.mvd == 0.0, "center_hold MVD is exactly 0")


def _recording(methods: dict) -> tuple[dict, list]:
    """Wrap method callables so their trajectories are kept for checking
    after the timed pass."""
    seen: list = []

    def wrap(name, fn):
        def run(ep):
            traj = fn(ep)
            seen.append((name, len(ep), traj))
            return traj

        return run

    return {name: wrap(name, fn) for name, fn in methods.items()}, seen


def _check_recorded(seen: list, checks: Checks) -> None:
    for name, length, traj in seen:
        checks.check(_trajectory_ok(traj, length), f"{name} trajectory finite, episode length")
    seen.clear()


def _agent_eval(model, episodes, checks: Checks):
    """Greedy agent eval as `viewpilot eval --methods agent` runs it."""
    methods, seen = _recording(evaluation.build_methods(["agent"], model=model))
    rows, _ = evaluation.benchmark(methods, episodes, h_span=EVAL_H_SPAN, jobs=1)
    _check_rows(rows, checks, ["agent"])
    _check_recorded(seen, checks)
    return rows[0]


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def setup_train(size: Size, seed: int, workdir: Path) -> dict:
    train_eps = observation.generate_dataset(size.scene, seed, size.train_count)
    test_eps = observation.generate_dataset(
        size.scene, derive_seed(seed, REFERENCE_TEST_SEED), size.test_count
    )
    return {
        "arrays": [observation.episode_arrays(ep) for ep in train_eps],
        "windows": training.slice_windows([len(ep) for ep in train_eps], size.train.seq_len),
        "test": test_eps,
        "test_frames": sum(len(ep) for ep in test_eps),
    }


def measure_train(size, seed, inputs, checks, clock, seconds, fixed):
    """Train with the epoch loop of ``training.train`` (same window order and
    per-step rngs) until the budget is spent, with a greedy agent eval after
    every epoch; the agent's MO/MVD are taken after ``quality_epochs``."""
    config = size.train
    model_seed = derive_seed(seed, REFERENCE_MODEL_SEED)
    model = agent.PilotModel(size.dims, np.random.default_rng([model_seed, 0]))
    schedule = config.schedule()
    arrays, windows = inputs["arrays"], inputs["windows"]
    deadline = perf_counter() + seconds
    step_s, eval_s = [], []
    step_frames = 0
    quality = None
    epoch = 0
    while quality is None or (not fixed and perf_counter() < deadline):
        lr = schedule.lr(epoch)
        order = np.random.default_rng([model_seed, 1, epoch]).permutation(len(windows))
        for j, lo in enumerate(range(0, len(order), config.batch_size)):
            chunk = [windows[i] for i in order[lo : lo + config.batch_size]]
            rng = np.random.default_rng([model_seed, 2, epoch, j])
            try:
                stats, elapsed = clock.time(training.train_step, model, arrays, chunk, config, lr, rng)
            except NumericsError:
                checks.check(False, f"train step {epoch}/{j} raised NumericsError")
                continue
            step_s.append(elapsed)
            step_frames = stats.frames
            checks.check(
                all(map(math.isfinite, (stats.regression, stats.smoothness, stats.mean_reward))),
                "train step loss finite",
            )
        epoch += 1
        # One greedy eval per epoch spreads its samples over the whole run;
        # its cost does not depend on the weights.
        row, elapsed = clock.time(_agent_eval, model, inputs["test"], checks)
        eval_s.append(elapsed)
        if epoch == size.quality_epochs:
            quality = row
    named = {
        "train_frames_per_s": rate(step_frames, step_s),
        "agent_mo": quality.mo,
        "agent_mvd": quality.mvd,
        "agent_eval_frames_per_s": rate(inputs["test_frames"], eval_s),
        "train_steps": len(step_s),
    }
    samples = {"train_step_s": step_s, "agent_eval_s": eval_s}
    return named, (quality.mo, quality.mvd), samples


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def setup_eval(size: Size, seed: int, workdir: Path) -> dict:
    test_eps = observation.generate_dataset(
        size.scene, derive_seed(seed, REFERENCE_TEST_SEED), size.test_count
    )
    model_seed = derive_seed(seed, REFERENCE_MODEL_SEED)
    initial = agent.PilotModel(size.dims, np.random.default_rng([model_seed, 0]))
    checkpoint = workdir / "model.json"
    agent.save_model_checkpoint(
        checkpoint, initial, 0, size.train.schedule(), {"seed": model_seed}
    )
    model, ckpt = agent.load_model_checkpoint(checkpoint, expect_dims=size.dims)
    episodes_path = workdir / "test.jsonl"
    observation.save_episodes(test_eps, episodes_path)
    return {
        "test": test_eps,
        "model": model,
        "checkpoint_id": ckpt.digest,
        "episodes_path": episodes_path,
        "trajectory_path": workdir / "trajectory.jsonl",
        "test_frames": sum(len(ep) for ep in test_eps),
    }


def _stream_pilot(model, episodes_path, out_path, checkpoint_id) -> None:
    """The in-process body of `viewpilot pilot`: file -> pilot_step -> file."""
    with open(out_path, "w", encoding="utf-8") as out_fh:
        for index, (_, frames) in enumerate(observation.stream_episodes(episodes_path)):

            def records(frames=frames):
                state = None
                for t, (frame, gt, _) in enumerate(frames):
                    if state is None:
                        state = agent.initial_state(model, gt)
                    angle, selected, state = agent.pilot_step(frame, state, model)
                    yield t, angle, selected

            agent.write_trajectory(None, records(), checkpoint_id, episode_index=index, fh=out_fh)


def measure_eval(size, seed, inputs, checks, clock, seconds, fixed):
    """Rounds of: one full 6-method benchmark pass, one per-frame timed
    ``pilot_step`` pass over the test split, one streaming pilot pass."""
    model, test = inputs["model"], inputs["test"]
    methods, seen = _recording(
        evaluation.build_methods(
            evaluation.METHOD_NAMES, model=model, grid_step=EVAL_GRID_STEP,
            dp_smooth_weight=EVAL_DP_SMOOTH_WEIGHT, eta=size.train.eta,
        )
    )
    deadline = perf_counter() + seconds
    bench_s, stream_s, step_us = [], [], []
    rows = None
    rounds = 0
    while rounds < 2 or (not fixed and perf_counter() < deadline):
        (rows, _), elapsed = clock.time(evaluation.benchmark, methods, test, h_span=EVAL_H_SPAN, jobs=1)
        bench_s.append(elapsed)
        _check_rows(rows, checks, methods)
        agent_trajs = [traj for name, _, traj in seen if name == "agent"]
        _check_recorded(seen, checks)

        online = []
        for ep in test:
            scale = clock.factor() * 1e-3  # ns -> scaled us
            state = agent.initial_state(model, ep.gt[0])
            traj = []
            for frame in ep.frames:
                busy = clock.probe_busy_s
                t0 = perf_counter_ns()
                angle, _, state = agent.pilot_step(frame, state, model)
                elapsed_ns = perf_counter_ns() - t0 - (clock.probe_busy_s - busy) * 1e9
                step_us.append(elapsed_ns * scale)
                traj.append(angle)
            online.append(traj)
        checks.check(online == agent_trajs, "online pilot_step equals the agent method")

        _, elapsed = clock.time(
            _stream_pilot, model, inputs["episodes_path"], inputs["trajectory_path"],
            inputs["checkpoint_id"],
        )
        stream_s.append(elapsed)
        streamed = [angles for _, angles, _ in agent.read_trajectories(inputs["trajectory_path"])]
        checks.check(streamed == online, "streamed trajectory file equals online pilot_step")
        rounds += 1
    named = {
        "eval_frames_per_s": rate(len(methods) * inputs["test_frames"], bench_s),
        "pilot_step_p50_us": float(np.percentile(step_us, 50)),
        "pilot_step_p99_us": float(np.percentile(step_us, 99)),
        "pilot_step_samples": len(step_us),
        "pilot_stream_frames_per_s": rate(inputs["test_frames"], stream_s),
        "eval_passes": rounds,
    }
    samples = {"benchmark_pass_s": bench_s, "stream_pass_s": stream_s}
    return named, tuple((r.method, r.mo, r.mvd) for r in rows), samples


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def setup_ingest(size: Size, seed: int, workdir: Path) -> dict:
    count, per = size.train_count, size.shard_episodes
    return {
        "shards": [list(range(lo, min(lo + per, count))) for lo in range(0, count, per)],
        "path": workdir / "shard.jsonl",
    }


def _generate_shard(scene, seed, shard, path):
    """What `viewpilot gen-data` does, for the episodes of one shard."""
    episodes = [observation.synth_scene(scene, [seed, i]) for i in shard]
    observation.save_episodes(episodes, path)
    return episodes


def _load_shard(path):
    """What `viewpilot train` does first: read episodes and pack arrays."""
    loaded = observation.load_episodes(path)
    return loaded, [observation.episode_arrays(ep) for ep in loaded]


def measure_ingest(size, seed, inputs, checks, clock, seconds, fixed):
    """Shards of the reference train split (episode i has seed (seed, i), as
    ``generate_dataset`` gives it): generate and write each shard as
    `gen-data` does, then read it back and pack arrays as `train` does."""
    path = inputs["path"]
    shards = inputs["shards"]
    deadline = perf_counter() + seconds
    gen_s, load_s = [], []
    done = 0
    digest = []
    while done < len(shards) or (not fixed and perf_counter() < deadline):
        shard = shards[done % len(shards)]
        episodes, elapsed = clock.time(_generate_shard, size.scene, seed, shard, path)
        gen_s.append(elapsed)
        (loaded, packed), elapsed = clock.time(_load_shard, path)
        load_s.append(elapsed)
        checks.check(loaded == episodes, "load_episodes(save_episodes(eps)) == eps")
        if done < len(shards):
            digest.append(float(sum(a.flat.sum() for a in packed)))
        done += 1
    named = {
        "gen_data_frames_per_s": rate(size.shard_episodes * size.scene.frames, gen_s),
        "load_frames_per_s": rate(size.shard_episodes * size.scene.frames, load_s),
        "ingest_shards": done,
    }
    return named, tuple(digest), {"gen_shard_s": gen_s, "load_shard_s": load_s}


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


def setup_gradcheck(size: Size, seed: int, workdir: Path) -> dict:
    dims = size.check_dims
    model = agent.PilotModel(dims, np.random.default_rng(0))
    entries = {
        "selector": sum(p.values.size for p in model.selector.params()),
        "regressor": sum(p.values.size for p in model.regressor.params()),
    }
    entries["joint"] = entries["selector"] + entries["regressor"]
    return {"seed": derive_seed(seed, 0), "entries": entries}


TRAJECTORY_CHECK_FRAMES = 12
TRAJECTORY_CHECK_REPEATS = 40


def measure_gradcheck(size, seed, inputs, checks, clock, seconds, fixed):
    """Rounds of the one-seed check: every mode of ``check_model`` plus
    ``check_trajectory_loss`` (repeated, it takes milliseconds)."""
    gc_seed = inputs["seed"]
    modes = gradcheck.MODES
    deadline = perf_counter() + seconds
    mode_s = {mode: [] for mode in modes}
    traj_s = []
    errors = {}
    rounds = 0
    while rounds < 1 or (not fixed and perf_counter() < deadline):
        for mode in modes:
            result, elapsed = clock.time(
                gradcheck.check_model, mode, gc_seed, dims=size.check_dims,
                frames=size.check_frames, tolerance=GRADCHECK_TOLERANCE,
            )
            mode_s[mode].append(elapsed)
            checks.check(result.passed, f"gradcheck {mode} passes at {GRADCHECK_TOLERANCE}")
            errors[mode] = dict(result.max_rel_error)
        for _ in range(1 if fixed else TRAJECTORY_CHECK_REPEATS):
            result, elapsed = clock.time(
                gradcheck.check_trajectory_loss, gc_seed, frames=TRAJECTORY_CHECK_FRAMES,
                tolerance=GRADCHECK_TOLERANCE,
            )
            traj_s.append(elapsed)
            checks.check(result.passed, f"trajectory loss gradcheck passes at {GRADCHECK_TOLERANCE}")
        errors["trajectory_loss"] = dict(result.max_rel_error)
        rounds += 1
    model_s = sum(_median(mode_s[mode]) for mode in modes)
    # gradient_check evaluates the surrogate loss twice per parameter entry.
    model_frames = sum(2 * inputs["entries"][mode] * size.check_frames for mode in modes)
    traj_frames = 2 * 2 * TRAJECTORY_CHECK_FRAMES * TRAJECTORY_CHECK_FRAMES
    named = {
        "gradcheck_s": model_s + _median(traj_s),
        "gradcheck_frames_per_s": model_frames / model_s,
        "trajectory_check_frames_per_s": rate(traj_frames, traj_s),
        "gradcheck_rounds": rounds,
    }
    fingerprint = tuple(
        (check, tuple(sorted(errs.items()))) for check, errs in sorted(errors.items())
    )
    samples = {f"check_{mode}_s": mode_s[mode] for mode in modes}
    samples["check_trajectory_loss_s"] = traj_s
    return named, fingerprint, samples


WORKLOADS = {
    "train": (setup_train, measure_train),
    "eval": (setup_eval, measure_eval),
    "ingest": (setup_ingest, measure_ingest),
    "gradcheck": (setup_gradcheck, measure_gradcheck),
}
