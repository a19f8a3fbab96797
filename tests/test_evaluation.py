"""Tests for the benchmark methods and metrics.

The per-frame loops that the array code replaced live here as the
references, and the array code must equal them exactly.
"""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from viewpilot import evaluation
from viewpilot.agent import ModelDims, PilotModel, initial_state, pilot_episode, pilot_step
from viewpilot.diffcore import sgd_step, softmax
from viewpilot.errors import InvalidInput
from viewpilot.evaluation import (
    BenchmarkRow,
    _dp_unaries,
    default_view_grid,
    empty_frame_count,
    gt_replay,
    mean_overlap,
    mean_velocity_difference,
    offline_dp,
    selector_only,
)
from viewpilot.geometry import (
    Trajectory,
    ViewingAngle,
    nfov_iou,
    signed_azimuth_delta,
    signed_azimuth_delta_array,
)
from viewpilot.observation import (
    Episode,
    SceneConfig,
    episode_arrays,
    generate_dataset,
    rank_slots,
    synth_scene,
)
from viewpilot.training import DEFAULT_ETA, WindowBatch, reward_array, rollout_window

DIMS = ModelDims(appearance_dim=6, motion_bins=5, slots=4, selector_hidden=8, regressor_hidden=4)
SCENE = SceneConfig(frames=60, objects=3, slots=4, appearance_dim=6, motion_bins=5)


def _model(seed=0, scale=0.0):
    model = PilotModel(DIMS, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 100)
    for p in model.params():
        p.values[...] += scale * rng.normal(size=p.shape)
    return model


class TestSelectorOnly:
    def test_matches_a_per_frame_fold_of_the_selector(self):
        model = _model()
        episode = synth_scene(SCENE, 1)
        cell, head = model.selector.cell, model.selector.head.w.values
        h = model.selector.initial_state()
        expected, picks = [], []
        for frame in episode.frames:
            h = cell.step(frame.flat, h)
            picks.append(int(np.argmax(softmax(h @ head.T))))
            expected.append(ViewingAngle(*frame.positions[picks[-1]]))
        assert len(set(picks)) > 1  # the selection moves between slots
        assert selector_only(episode, pilot_episode(episode, model)[1]) == expected


# ---------------------------------------------------------------------------
# mean_overlap
# ---------------------------------------------------------------------------


def _scalar_nfov_iou(a: ViewingAngle, b: ViewingAngle, h_span: float) -> float:
    """Reference: the IoU of the 4:3 windows of span ``h_span`` centered at
    two viewing angles, one pair at a time: a wrap-aware azimuth overlap
    times the overlap of the elevation extents clipped to [-90, 90]."""
    half = h_span * 3.0 / 4.0 / 2.0
    d = abs(signed_azimuth_delta(b.azimuth - a.azimuth))
    ov_az = min(h_span, max(0.0, h_span - d) + max(0.0, h_span - (360.0 - d)))
    a_low, a_high = max(-90.0, a.elevation - half), min(90.0, a.elevation + half)
    b_low, b_high = max(-90.0, b.elevation - half), min(90.0, b.elevation + half)
    inter = ov_az * max(0.0, min(a_high, b_high) - max(a_low, b_low))
    return inter / (h_span * (a_high - a_low) + h_span * (b_high - b_low) - inter)


def _overlap_fold(pred: np.ndarray, gt: np.ndarray, h_span: float) -> float:
    """Reference: a frame-order fold of the scalar IoU."""
    total = 0.0
    for p, g in zip(pred, gt):
        total += _scalar_nfov_iou(ViewingAngle(*p), ViewingAngle(*g), h_span)
    return total / len(pred)


def _angle_pairs(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Random pairs (raw angles outside the wrapped/clamped ranges too),
    plus the azimuth seam, near-antipodal azimuths and the poles."""
    rng = np.random.default_rng(seed)
    pred = np.column_stack([rng.uniform(-400.0, 760.0, 300), rng.uniform(-120.0, 120.0, 300)])
    gt = pred + rng.normal(scale=[60.0, 25.0], size=pred.shape)
    edges_pred = [
        (359.9, 10.0), (0.1, -5.0), (0.0, 0.0), (10.0, 0.0), (0.0, 0.0), (-1e-300, 3.0),
        (45.0, 90.0), (120.0, -90.0), (30.0, 89.0), (200.0, -90.0), (720.0, 90.0), (180.0, 0.0),
        (123.456, 7.0),
    ]
    edges_gt = [
        (0.1, 10.0), (359.9, -5.0), (180.0, 0.0), (190.000001, 0.0), (179.99999, 0.0),
        (359.0, 3.0), (50.0, 90.0), (300.0, -90.0), (30.0, 90.0), (200.0, -60.0), (0.0, 80.0),
        (-180.0, 0.0), (-1e-300, 7.0),
    ]
    # -1e-300 wraps to 360.0 in float arithmetic, which ViewingAngle maps to 0.
    seam = np.column_stack([np.full(40, -1e-300), rng.uniform(-30.0, 30.0, 40)])
    others = np.column_stack([rng.uniform(0.0, 360.0, 40), seam[:, 1]])
    pred = np.vstack([pred, edges_pred, seam[:20], others[20:]])
    return pred, np.vstack([gt, edges_gt, others[:20], seam[20:]])


class TestMeanOverlap:
    @pytest.mark.parametrize("h_span", [65.5, 120.0, 300.0])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_equals_a_frame_order_fold_of_nfov_iou(self, seed, h_span):
        pred, gt = _angle_pairs(seed)
        per_frame = [
            _scalar_nfov_iou(ViewingAngle(*p), ViewingAngle(*g), h_span) for p, g in zip(pred, gt)
        ]
        assert nfov_iou(pred, gt, h_span).tolist() == per_frame
        assert mean_overlap(pred, gt, h_span=h_span) == _overlap_fold(pred, gt, h_span)

    def test_rejects_what_the_scalar_path_rejects(self):
        pred, gt = _angle_pairs(3)
        with pytest.raises(InvalidInput):
            mean_overlap(pred, gt[:-1])
        with pytest.raises(InvalidInput):
            mean_overlap(pred, gt, h_span=0.0)
        pred[4, 1] = np.nan
        with pytest.raises(InvalidInput):
            mean_overlap(pred, gt)

    def test_empty_trajectories_are_invalid_input(self):
        with pytest.raises(InvalidInput, match="empty"):
            mean_overlap(np.empty((0, 2)), np.empty((0, 2)))
        with pytest.raises(InvalidInput, match="empty"):
            mean_overlap(np.zeros(4), np.zeros(4))
        for short in (np.zeros((2, 2)), np.zeros((5, 2, 2)), np.zeros(6)):
            with pytest.raises(InvalidInput, match="MVD needs at least 3 frames"):
                mean_velocity_difference(short)


# ---------------------------------------------------------------------------
# offline_dp
# ---------------------------------------------------------------------------


def _unaries_per_frame(episode: Episode, grid_arr: np.ndarray, eta: float) -> np.ndarray:
    """Reference: the per-frame loop over real detections."""
    arrays = episode_arrays(episode)
    t_total, g_total = len(episode), grid_arr.shape[0]
    unary = np.zeros((t_total, g_total))
    for t in range(t_total):
        real = arrays.scores[t] > 0.0
        if not real.any():
            continue
        pos = arrays.positions[t, real]  # (R, 2)
        scores = arrays.scores[t, real]
        rewards = reward_array(grid_arr[:, None, :], pos[None, :, :], eta)  # (G, R)
        daz = np.abs(signed_azimuth_delta_array(grid_arr[:, None, 0] - pos[None, :, 0]))
        dist = np.hypot(daz, grid_arr[:, None, 1] - pos[None, :, 1])
        nearest = np.argmin(dist, axis=1)
        unary[t] = scores[nearest] * rewards[np.arange(g_total), nearest]
    return unary


def _offline_dp_per_frame(episode: Episode, grid_step: float, smooth_weight: float, eta: float):
    """Reference: the per-frame unaries and a (from, to) DP recursion."""
    grid_arr = default_view_grid(grid_step)
    unary = _unaries_per_frame(episode, grid_arr, eta)
    daz = np.abs(signed_azimuth_delta_array(grid_arr[:, None, 0] - grid_arr[None, :, 0]))
    trans = smooth_weight * np.hypot(daz, grid_arr[:, None, 1] - grid_arr[None, :, 1])
    t_total, g_total = unary.shape
    best = unary[0].copy()
    back = np.zeros((t_total, g_total), dtype=np.int64)
    for t in range(1, t_total):
        scores = best[:, None] - trans  # (from, to)
        back[t] = np.argmax(scores, axis=0)
        best = scores[back[t], np.arange(g_total)] + unary[t]
    path = [int(np.argmax(best))]
    for t in range(t_total - 1, 0, -1):
        path.append(back[t, path[-1]])
    return [ViewingAngle(*grid_arr[g]) for g in reversed(path)]


def _with_padding(episode: Episode, empty: list[int], single: list[int]) -> Episode:
    """Frames in ``empty`` keep no detection and frames in ``single`` keep
    only their top one; the freed slots are padding at (0, 0)."""
    arrays = (episode.appearance, episode.positions, episode.motions, episode.scores)
    slots = [np.zeros_like(a) for a in arrays]
    for t in range(len(episode)):
        kept = 0 if t in empty else 1 if t in single else SCENE.slots
        ranked, _ = rank_slots(*(a[t : t + 1, :kept] for a in arrays), SCENE.slots)
        for out, row in zip(slots, ranked):
            out[t] = row[0]
    return Episode(*slots, episode.gt_track)


def _with_ties(episode: Episode, frames, pairs) -> Episode:
    """In ``frames``, each (lower, upper) slot pair of ``pairs`` sits at one
    position, so both are equally near every view; their scores differ."""
    positions = episode.positions.copy()
    for lower, upper in pairs:
        positions[frames, upper] = positions[frames, lower]
    return Episode(episode.appearance, positions, episode.motions, episode.scores, episode.gt_track)


DP_CASES = {  # (episode, grid step)
    "padding frames": (
        _with_padding(synth_scene(SCENE, 3), [0, 1, 2, 17, 58, 59], list(range(20, 50))), 30.0
    ),
    "grid_step 45": (synth_scene(SCENE, 4), 45.0),
    "tied detections": (_with_ties(synth_scene(SCENE, 6), slice(5, 45), [(0, 1), (2, 3)]), 30.0),
}
# (episode, grid array): the cases' default grids plus a grid that repeats azimuths
UNARY_CASES = {name: (ep, default_view_grid(step)) for name, (ep, step) in DP_CASES.items()}
UNARY_CASES["repeated grid azimuths"] = (
    synth_scene(SCENE, 5),
    np.array([
        (10.0, 0.0), (200.0, -10.0), (10.0, 30.0), (359.5, 0.0),
        (0.0, 0.0), (10.0, -60.0), (200.0, 45.0), (0.0, 20.0),
    ]),
)


class TestBenchmark:
    def test_short_episode_is_named_before_any_method_runs(self):
        calls = []
        short = synth_scene(dataclasses.replace(SCENE, frames=2), 1)
        episodes = [synth_scene(SCENE, 1), short, short]
        with pytest.raises(InvalidInput, match="episode 1 has 2 frames; MVD needs at least 3"):
            evaluation.benchmark({"center_hold": lambda ep: calls.append(ep)}, episodes)
        assert calls == []

    def test_two_episode_lengths_equal_a_per_episode_fold(self):
        """One metric call per method and length group gives the rows and
        detail records of one (T, 2) call per episode, byte for byte."""
        lengths = (200, 120, 200, 120, 200)
        episodes = [
            synth_scene(dataclasses.replace(SCENE, frames=frames), seed)
            for seed, frames in enumerate(lengths)
        ]
        methods = evaluation.build_methods(evaluation.METHOD_NAMES, model=_model(0, 0.5))
        rows, details = evaluation.benchmark(methods, episodes)
        expected_rows, expected_details = [], []
        for name, fn in methods.items():
            mos, mvds = [], []
            for ep in episodes:
                traj = np.array([[a.azimuth, a.elevation] for a in fn(ep)])
                mos.append(mean_overlap(traj, ep.gt_track))
                mvds.append(mean_velocity_difference(traj))
            assert {type(value) for value in mos + mvds} == {float}
            expected_rows.append(BenchmarkRow(name, float(np.mean(mos)), float(np.mean(mvds)), 5))
            expected_details.extend(
                {"method": name, "episode": i, "mo": mo, "mvd": mvd, "empty_frames": 0}
                for i, (mo, mvd) in enumerate(zip(mos, mvds))
            )
        assert repr(rows) == repr(expected_rows)
        assert repr(details) == repr(expected_details)
        short = {"gt_replay": lambda ep: gt_replay(ep)[:-1] if len(ep) == 120 else gt_replay(ep)}
        with pytest.raises(InvalidInput, match="gt_replay returned 119 angles for episode 1 of 120"):
            evaluation.benchmark(short, episodes)

    def test_a_return_other_than_a_trajectory_is_refused(self):
        episodes = [synth_scene(SCENE, 1), synth_scene(dataclasses.replace(SCENE, frames=40), 2)]
        methods = evaluation.build_methods(evaluation.METHOD_NAMES, model=_model(0, 0.5))
        assert all(type(fn(ep)) is Trajectory for fn in methods.values() for ep in episodes)
        for wrap, got in ((list, "list"), (tuple, "tuple"), (lambda t: t.array, "ndarray")):
            bad = {**methods, "gt_replay": lambda ep, wrap=wrap: wrap(gt_replay(ep))}
            message = f"gt_replay returned {got} for episode 0 of 60 frames, not a Trajectory"
            with pytest.raises(InvalidInput, match=message):
                evaluation.benchmark(bad, episodes)
        agent = methods["agent"]
        short = {"agent": lambda ep: agent(ep)[1:] if len(ep) == 40 else agent(ep)}
        with pytest.raises(InvalidInput, match="agent returned 39 angles for episode 1 of 40 frames"):
            evaluation.benchmark(short, episodes)

    def test_agent_and_selector_only_share_one_selector_pass(self, monkeypatch):
        model = _model(0, 0.5)
        unroll, calls = model.selector.unroll, []
        monkeypatch.setattr(model.selector, "unroll", lambda flat: calls.append(1) or unroll(flat))
        episodes = [synth_scene(SCENE, seed) for seed in (1, 2, 3)]
        pair = evaluation.benchmark(evaluation.build_methods(["agent", "selector_only"], model), episodes)
        assert len(calls) == 3  # one pass per episode for both methods
        singles = [
            evaluation.benchmark(evaluation.build_methods([name], model), episodes)
            for name in ("agent", "selector_only")
        ]
        assert len(calls) == 9
        assert repr(pair) == repr(([*singles[0][0], *singles[1][0]], [*singles[0][1], *singles[1][1]]))
        methods = evaluation.build_methods(["selector_only", "agent"], model)
        twin = dataclasses.replace(episodes[0])  # equal arrays, another object
        for ep in (episodes[0], episodes[1], episodes[0], twin):  # each new object runs a pass
            methods["selector_only"](ep)
            methods["agent"](ep)
        assert len(calls) == 13

    @pytest.mark.parametrize(
        "edit, moved",
        [
            ("sgd_step", (0, 1)),
            ("flat", (0, 1)),
            ("rebound weights", (0, 1)),
            ("regressor weight in place", (0,)),
            ("rebound regressor weights", (0,)),
            ("positions", (0, 1)),
            ("gt_track", (0, 1)),
        ],
    )
    def test_an_edit_between_passes_gives_a_fresh_pass(self, edit, moved):
        """The shared ``pilot_episode`` result is reused only while all it
        reads is unchanged: an edit to any of it moves the rows that read
        the edit (0: ``agent``, 1: ``selector_only``), as a fresh build does."""
        model, episodes = _model(0, 0.5), [synth_scene(SCENE, 4)]
        names = ["agent", "selector_only"]
        methods = evaluation.build_methods(names, model)
        before = evaluation.benchmark(methods, episodes)
        rng, episode = np.random.default_rng(5), episodes[0]
        if edit == "sgd_step":
            for p in model.params():
                p.grad[...] = rng.normal(size=p.shape)
            sgd_step(model.params(), 0.5)
        elif edit in ("flat", "positions", "gt_track"):
            array = getattr(episode, edit)
            array[...] += rng.normal(scale=2.0 if edit == "flat" else 20.0, size=array.shape)
        elif edit == "regressor weight in place":
            model.regressor.head.w.values[...] *= -1.0
        else:
            for p in (model.selector if edit == "rebound weights" else model.regressor).params():
                p.values = p.values[::-1].copy()
        after = evaluation.benchmark(methods, episodes)
        assert [i for i in (0, 1) if after[0][i] != before[0][i]] == list(moved)
        assert repr(after) == repr(evaluation.benchmark(evaluation.build_methods(names, model), episodes))

    @pytest.mark.parametrize(
        "names, message",
        [([], "no methods given; valid methods: agent, selector_only, center_hold,"),
         (["center_hold", "bogus"], r"unknown methods \['bogus'\]; valid methods: agent,"),
         (["center_hold", "selector_only"], "the methods agent/selector_only need a model")],
    )
    def test_build_methods_refuses_what_it_cannot_build(self, names, message):
        with pytest.raises(InvalidInput, match=message):
            evaluation.build_methods(names)

    @pytest.mark.parametrize("jobs", [0, 2])
    def test_jobs_other_than_one_is_refused(self, jobs):
        methods = evaluation.build_methods(["center_hold"])
        with pytest.raises(InvalidInput, match="jobs must be 1"):
            evaluation.benchmark(methods, [synth_scene(SCENE, 1)], jobs=jobs)


def test_empty_frame_count_counts_frames_without_detections():
    episode, _ = DP_CASES["padding frames"]
    assert empty_frame_count(episode) == 6
    assert empty_frame_count(synth_scene(SCENE, 3)) == 0


class TestOfflineDp:
    @pytest.mark.parametrize("case", list(UNARY_CASES))
    @pytest.mark.parametrize("block_entries", [evaluation._DP_BLOCK_ENTRIES, 1])
    def test_unaries_equal_the_per_frame_loop(self, monkeypatch, case, block_entries):
        monkeypatch.setattr(evaluation, "_DP_BLOCK_ENTRIES", block_entries)  # 1: a frame per block
        episode, grid_arr = UNARY_CASES[case]
        expected = _unaries_per_frame(episode, grid_arr, DEFAULT_ETA)
        assert np.any(expected != 0.0)
        azimuths, column = np.unique(grid_arr[:, 0], return_inverse=True)
        unaries = _dp_unaries(episode, grid_arr, azimuths, column, DEFAULT_ETA)
        assert unaries.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("case", list(DP_CASES))
    @pytest.mark.parametrize("smooth_weight", [1.0, 0.05])
    def test_path_equals_the_per_frame_reference(self, case, smooth_weight):
        episode, step = DP_CASES[case]
        path = offline_dp(episode, grid_step=step, smooth_weight=smooth_weight)
        assert path == _offline_dp_per_frame(episode, step, smooth_weight, DEFAULT_ETA)
        if smooth_weight < 1.0:
            assert len(set(path)) > 1  # the path moves between views

    @pytest.mark.parametrize("case", list(DP_CASES))
    @pytest.mark.parametrize("eta", [DEFAULT_ETA, 25.0])
    def test_built_method_equals_offline_dp(self, case, eta):
        episode, step = DP_CASES[case]
        method = evaluation.build_methods(
            ["offline_dp"], grid_step=step, dp_smooth_weight=0.05, eta=eta
        )["offline_dp"]
        for ep in (episode, synth_scene(SCENE, 9), episode):  # one grid serves every episode
            assert method(ep) == offline_dp(ep, grid_step=step, smooth_weight=0.05, eta=eta)

    def test_grid_is_prepared_once_and_only_when_offline_dp_runs(self):
        prepared = evaluation._dp_grid
        prepared.cache_clear()
        episodes = [synth_scene(SCENE, 1), synth_scene(SCENE, 2), synth_scene(SCENE, 3)]
        evaluation.benchmark(evaluation.build_methods(["center_hold", "gt_replay"]), episodes)
        methods = evaluation.build_methods(["center_hold", "offline_dp"], grid_step=1.0)
        assert prepared.cache_info().misses == 0  # neither eval nor building prepared a grid
        with pytest.raises(InvalidInput, match="a 64800-view grid"):
            methods["offline_dp"](episodes[0])
        prepared.cache_clear()
        methods = evaluation.build_methods(["offline_dp"], grid_step=45.0, dp_smooth_weight=0.05)
        evaluation.benchmark(methods, episodes)
        assert prepared.cache_info()[:2] == (2, 1)  # (hits, misses)

    @pytest.mark.parametrize(
        "eta, smooth_weight",
        [(0.0, 1.0), (-5.0, 1.0), (math.nan, 1.0), (math.inf, 1.0),
         (DEFAULT_ETA, -5.0), (DEFAULT_ETA, math.nan), (DEFAULT_ETA, math.inf)],
    )
    def test_bad_eta_or_smooth_weight_is_refused_before_the_grid(self, eta, smooth_weight):
        episode = synth_scene(SCENE, 3)
        evaluation._dp_grid.cache_clear()
        with pytest.raises(InvalidInput, match="offline_dp needs a finite eta > 0 and smooth_weight >= 0"):
            offline_dp(episode, eta=eta, smooth_weight=smooth_weight)
        assert evaluation._dp_grid.cache_info().misses == 0
        assert len(offline_dp(episode, smooth_weight=0.0)) == len(episode)

    def test_grid_past_the_entry_bound_is_refused(self):
        episode = synth_scene(SCENE, 3)
        with pytest.raises(InvalidInput, match="got a 4050-view grid"):  # before any (G, G) array
            offline_dp(episode, grid_step=4.0)
        bound = f"makes more than {evaluation.MAX_DP_ENTRIES} offline_dp grid views"
        for step in (1e-3, 1e-310, 5e-324):  # 1e-310's view counts overflow a float
            with pytest.raises(InvalidInput, match=bound):
                offline_dp(episode, grid_step=step)
        for step in (0.0, -30.0, 180.5, math.nan):
            with pytest.raises(InvalidInput, match=r"grid step must be in \(0, 180\]"):
                default_view_grid(step)
        assert default_view_grid(5.0).shape == (2592, 2)


# ---------------------------------------------------------------------------
# agent
# ---------------------------------------------------------------------------


REFERENCE_DIMS = ModelDims(16, 12, 8, 32, 8)
REFERENCE_SCENE = SceneConfig(
    frames=200, objects=4, slots=8, appearance_dim=16, motion_bins=12,
    position_noise=1.5, appearance_noise=0.3, main_score_bias=1.0,
)


@pytest.fixture(scope="module")
def reference_test_split():
    """The test split of configs/reference.json (gen-data --seed 99 --count 10)."""
    return generate_dataset(REFERENCE_SCENE, 99, 10)


def _forced_rollout(model, episode):
    """The training kernel at B=1 forced to the selector's greedy picks:
    (picks, rolled-out angles (T, 2))."""
    batch = WindowBatch(
        episode.flat[None], episode.positions[None], episode.motions[None], episode.gt_track[None]
    )
    picks = np.argmax(model.selector.unroll(batch.flat)[1], axis=-1)
    return picks[0], rollout_window(model, batch, forced_indices=picks).pred[0]


def _pilot_step_fold(episode, model):
    """``pilot_step`` folded frame by frame from the first ground-truth
    angle: (angles, picks)."""
    state, angles, picks = initial_state(model, episode.gt[0]), [], []
    for frame in episode.frames:
        angle, index, state = pilot_step(frame, state, model)
        angles.append(angle)
        picks.append(index)
    return angles, picks


class TestPilotEpisode:
    @pytest.mark.parametrize("model_seed", [7, 8, 9])
    @pytest.mark.parametrize("scale", [0.0, 0.3])
    def test_training_kernel_and_online_fold_equal_the_agent(
        self, model_seed, scale, reference_test_split
    ):
        model = PilotModel(REFERENCE_DIMS, np.random.default_rng([model_seed, 0]))
        rng = np.random.default_rng([model_seed, 1])
        for p in model.params():  # nonzero biases put their sums' order to the test
            p.values += scale * rng.normal(size=p.shape)
        method = evaluation.build_methods(["agent"], model)["agent"]
        for episode in reference_test_split:
            agent, agent_picks = pilot_episode(episode, model)
            picks, pred = _forced_rollout(model, episode)
            assert pred.tolist() == [[a.azimuth, a.elevation] for a in agent]
            assert agent_picks.tolist() == picks.tolist()
            assert _pilot_step_fold(episode, model) == (agent, picks.tolist())
            assert method(episode) == agent

    @pytest.mark.parametrize(
        "weight, index", [("regressor.head.w", (1, 0)), ("regressor.cell.w_hh", (0, 0))]
    )
    def test_nan_weight_raises_at_the_first_non_finite_angle(self, weight, index, reference_test_split):
        model = PilotModel(REFERENCE_DIMS, np.random.default_rng([7, 0]))
        model.param_map()[weight].values[index] = np.nan
        episode = reference_test_split[0]
        pred = _forced_rollout(model, episode)[1]
        az, el = pred[np.argmin(np.isfinite(pred).all(axis=1))].tolist()
        message = f"non-finite viewing angle ({az}, {el})"
        assert np.isnan(el)  # a NaN elevation is not clamped away
        for pilot in (pilot_episode, _pilot_step_fold):
            with pytest.raises(InvalidInput) as err:
                pilot(episode, model)
            assert str(err.value) == message

    @pytest.mark.parametrize("seed, scale", [(0, 0.0), (1, 0.5), (2, 2.0)])
    def test_equals_the_pilot_step_fold(self, seed, scale):
        model, episode = _model(seed, scale), synth_scene(SCENE, 10 + seed)
        trajectory, selections = _pilot_step_fold(episode, model)
        assert len(set(selections)) > 1
        agent, picks = pilot_episode(episode, model)
        assert agent == trajectory and picks.tolist() == selections

    def test_mismatched_dims_are_invalid_input(self):
        model = _model()
        other = synth_scene(dataclasses.replace(SCENE, appearance_dim=7), 0)
        with pytest.raises(InvalidInput):
            pilot_step(other.frames[0], initial_state(model, other.gt[0]), model)
        with pytest.raises(InvalidInput):
            pilot_episode(other, model)


# The benchmark's tiny size (perfbench/workloads.py SIZES["tiny"]).
TINY_DIMS = ModelDims(4, 4, 3, selector_hidden=8, regressor_hidden=4)
TINY_SCENE = SceneConfig(frames=20, objects=2, slots=3, appearance_dim=4, motion_bins=4)


class TestPilotStepIdentity:
    """Folded from the first gt angle, ``pilot_step`` gives ``pilot_episode``'s
    angles and picks bit for bit, and carries the cell's selector state and
    the training kernel's regressor state."""

    @pytest.fixture(params=["reference", "tiny"])
    def split(self, request, reference_test_split):
        if request.param == "tiny":
            return TINY_DIMS, generate_dataset(TINY_SCENE, 99, 4)
        return REFERENCE_DIMS, reference_test_split

    @pytest.mark.parametrize("nan_weight", [None, "selector.head.w", "selector.cell.w_hh"])
    @pytest.mark.parametrize("model_seed", [7, 8, 9])
    def test_angles_picks_and_carried_state(self, split, model_seed, nan_weight):
        dims, episodes = split
        model = PilotModel(dims, np.random.default_rng([model_seed, 0]))
        rng = np.random.default_rng([model_seed, 1])
        for p in model.params():  # nonzero biases put their sums' order to the test
            p.values += 0.3 * rng.normal(size=p.shape)
        if nan_weight:  # a NaN logit makes the whole softmax NaN, and every pick slot 0
            model.param_map()[nan_weight].values[0, 0] = np.nan
        for episode in episodes:
            trajectory, picks = pilot_episode(episode, model)
            batch = WindowBatch(
                episode.flat[None], episode.positions[None], episode.motions[None], episode.gt_track[None]
            )
            mus = rollout_window(model, batch, forced_indices=picks[None]).mus[0]
            state, angles, indices = initial_state(model, episode.gt[0]), [], []
            for t, frame in enumerate(episode.frames):
                h = model.selector.cell.step(frame.flat, state.selector_h)
                angle, index, state = pilot_step(frame, state, model)
                assert state.angle is angle and type(index) is int
                assert state.selector_h.tobytes() == h.tobytes()
                assert state.regressor_mu.tobytes() == mus[t + 1].tobytes()
                angles.append((angle.azimuth, angle.elevation))
                indices.append(index)
            assert np.array(angles).tobytes() == trajectory.array.tobytes()
            assert indices == picks.tolist()

    @pytest.mark.parametrize("weight", ["regressor.head.w", "regressor.cell.w_xh", "regressor.cell.b"])
    def test_nan_weight_raises_the_agents_error(self, split, weight):
        dims, episodes = split
        model = PilotModel(dims, np.random.default_rng([7, 0]))
        model.param_map()[weight].values.flat[0] = np.nan
        with pytest.raises(InvalidInput, match="non-finite viewing angle") as want:
            pilot_episode(episodes[0], model)
        with pytest.raises(InvalidInput) as got:
            _pilot_step_fold(episodes[0], model)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("model_seed", [7, 8, 9])
def test_pilot_step_picks_keep_a_margin_over_its_selector_floats(model_seed, reference_test_split):
    """``pilot_step``'s selector state (``cell.step``, one GEMV per frame) is
    not bit for bit the ``unroll`` (one GEMM) that ``pilot_episode`` picks
    from. On the eval workload's inputs (split 99, the initial models of
    seeds 7-9) the states stay within 1e-14 (measured 4.4e-16 to 6.1e-16)
    and every pick's top-two probability gap is at least 1e-8 (measured
    1.15e-6, 1.15e-5 and 2.7e-6): the margin behind the benchmark's exact
    ``online == agent`` check."""
    model = PilotModel(REFERENCE_DIMS, np.random.default_rng([model_seed, 0]))
    for episode in reference_test_split:
        hs, probs = model.selector.unroll(episode.flat[None])
        h = model.selector.initial_state()
        for t, x in enumerate(episode.flat):
            h = model.selector.cell.step(x, h)
            assert np.max(np.abs(h - hs[0, t + 1])) <= 1e-14
        top_two = np.sort(probs[0], axis=-1)[:, -2:]
        assert np.min(top_two[:, 1] - top_two[:, 0]) >= 1e-8


# SHA-256 of the six-method benchmark rows and detail records at the
# reference dims and eval settings, over test splits 99 and 5 and the
# initial models of seeds 7 and 8. A change to any method's or metric's
# arithmetic that moves a last bit changes it.
GOLDEN_EVAL_DIGEST = "9a1f34a23f60db6e5a4a04505c9567287ea36c3db513d2fdae8b9d817847ef81"


def test_benchmark_rows_and_details_match_the_golden_digest(reference_test_split):
    digest = hashlib.sha256()
    for episodes in (reference_test_split, generate_dataset(REFERENCE_SCENE, 5, 10)):
        for model_seed in (7, 8):
            model = PilotModel(REFERENCE_DIMS, np.random.default_rng([model_seed, 0]))
            methods = evaluation.build_methods(evaluation.METHOD_NAMES, model=model)
            rows, details = evaluation.benchmark(methods, episodes)
            digest.update(json.dumps([[dataclasses.astuple(r) for r in rows], details]).encode())
    assert digest.hexdigest() == GOLDEN_EVAL_DIGEST
