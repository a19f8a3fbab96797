"""Metrics (mean overlap, mean velocity difference), baseline pilots, the
offline dynamic-programming view-path optimizer, and benchmark rows.

MVD is reported in degrees per frame. Benchmark rows carry, per method, the
MO/MVD means over episodes plus per-episode detail records, including how
many frames contained no real detections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .agent import PilotModel, steering_step
from .errors import InvalidInput
from .geometry import (
    DEFAULT_H_SPAN, ViewingAngle, nfov_iou_array, signed_azimuth_delta_array, viewing_angles,
)
from .observation import Episode
# Unused here; perfbench's tracer swaps these bindings and fails a check if one is missing.
from .agent import pilot_episode  # noqa: F401
from .geometry import nfov_iou  # noqa: F401
from .observation import episode_arrays, synth_scene  # noqa: F401
from .regressor import velocity_array
from .training import DEFAULT_ETA

Trajectory = Sequence[ViewingAngle]


def _as_array(trajectory) -> np.ndarray:
    if isinstance(trajectory, np.ndarray):
        return np.asarray(trajectory, dtype=np.float64)
    return np.array([[p.azimuth, p.elevation] for p in trajectory], dtype=np.float64)


def mean_overlap(pred: Trajectory, gt: Trajectory, h_span: float = DEFAULT_H_SPAN) -> float:
    """Mean per-frame IoU between the predicted and ground-truth view windows.

    Takes sequences of ViewingAngle or (T, 2) arrays. The IoUs are summed
    in frame order (a pairwise ``np.sum`` would change the last bits).
    """
    pred_arr, gt_arr = _as_array(pred), _as_array(gt)
    if pred_arr.shape != gt_arr.shape:
        raise InvalidInput(f"trajectory lengths differ: {pred_arr.shape} vs {gt_arr.shape}")
    iou = nfov_iou_array(pred_arr, gt_arr, h_span)
    return float(np.add.accumulate(iou)[-1]) / pred_arr.shape[0]


def mean_velocity_difference(pred: Trajectory) -> float:
    """Mean norm of consecutive viewing-angle velocity changes, deg/frame.

    Averages over the T-2 well-defined velocity differences, so it needs at
    least 3 frames.
    """
    pred_arr = _as_array(pred)
    if pred_arr.shape[0] < 3:
        raise InvalidInput(f"MVD needs at least 3 frames, got {pred_arr.shape[0]}")
    v = velocity_array(pred_arr[None])[0][1:]  # real velocities, t >= 1
    return float(np.linalg.norm(np.diff(v, axis=0), axis=1).mean())


# ---------------------------------------------------------------------------
# Baseline pilots. All return a trajectory the same length as the episode.
# ---------------------------------------------------------------------------


def center_hold(episode: Episode) -> list[ViewingAngle]:
    """Never steer: hold the first frame's ground-truth angle."""
    return [ViewingAngle(*episode.gt_track[0].tolist())] * len(episode)


def greedy_salient(episode: Episode) -> list[ViewingAngle]:
    """Jump to the highest-scoring detection every frame (slot 0 by the
    score ordering)."""
    return viewing_angles(episode.positions[:, 0])


def selector_only(episode: Episode, model: PilotModel) -> list[ViewingAngle]:
    """Run the trained selector greedily and emit the chosen object's
    position directly, skipping the refinement network."""
    _, probs = model.selector.unroll(episode.flat[None])
    picks = np.argmax(probs[0], axis=-1)
    return viewing_angles(episode.positions[np.arange(len(picks)), picks])


def gt_replay(episode: Episode) -> list[ViewingAngle]:
    """Replay the ground-truth track (upper bound / metric sanity method)."""
    return episode.gt


def agent_pilot(episode: Episode, model: PilotModel) -> list[ViewingAngle]:
    """The full online agent, ``pilot_step`` folded over the episode from its
    first ground-truth angle: the selector runs once, its argmax picks each
    frame's slot, then ``agent.steering_step`` moves the view frame by frame."""
    _, probs = model.selector.unroll(episode.flat[None])
    frames, picks = np.arange(len(episode)), np.argmax(probs[0], axis=-1)
    xs = np.append(episode.motions[frames, picks], np.zeros((len(episode), 2)), axis=1)
    step, mu, views = steering_step(model), model.regressor.initial_state(), []
    az, el = episode.gt_track[0].tolist()
    for x, target in zip(xs, episode.positions[frames, picks].tolist()):
        az, el, mu = step(x, *target, az, el, mu)
        views.append((az, el))
    return viewing_angles(views)


def default_view_grid(step: float = 30.0) -> list[ViewingAngle]:
    """Cell centers of a step x step angle grid covering the sphere."""
    if step <= 0 or step > 180:
        raise InvalidInput(f"grid step must be in (0, 180], got {step}")
    azimuths = np.arange(step / 2.0, 360.0, step)
    elevations = np.arange(-90.0 + step / 2.0, 90.0, step)
    grid = np.stack(np.meshgrid(azimuths, elevations, indexing="ij"), axis=-1)
    return viewing_angles(grid.reshape(-1, 2))


# Frames per block of _dp_unaries are chosen so that one (block, G, N)
# float64 temporary holds about this many entries (4 MB).
_DP_BLOCK_ENTRIES = 1 << 19


def _dp_unaries(episode: Episode, grid_arr: np.ndarray, eta: float) -> np.ndarray:
    """unary[t, g]: score-weighted reward of grid view g against the nearest
    real detection at frame t (zero when the frame has no detections).

    Distances are taken once per (frame, view, slot) with padded slots
    masked out, and the reward (``reward_array``'s piecewise form) only at
    the nearest slot. Frames go in blocks that bound the temporaries.
    """
    t_total, n = episode.scores.shape
    azimuths, column = np.unique(grid_arr[:, 0], return_inverse=True)
    unary = np.zeros((t_total, grid_arr.shape[0]))
    block = max(1, _DP_BLOCK_ENTRIES // (grid_arr.shape[0] * n))
    for lo in range(0, t_total, block):
        frames = slice(lo, lo + block)
        real = episode.scores[frames] > 0.0
        slots = np.flatnonzero(real.any(axis=0))  # slots padded in every frame are skipped
        if slots.size == 0:
            continue
        pos, real = episode.positions[frames, slots], real[:, slots]
        daz = signed_azimuth_delta_array(azimuths[:, None] - pos[:, None, :, 0])[:, column]
        dist = np.hypot(daz, grid_arr[:, 1, None] - pos[:, None, :, 1])  # (block, G, slots)
        np.copyto(dist, np.inf, where=~real[:, None])
        nearest = np.argmin(dist, axis=2)[..., None]
        d = np.take_along_axis(dist, nearest, axis=2)[..., 0]
        score = np.take_along_axis(episode.scores[frames, None, slots], nearest, axis=2)[..., 0]
        value = score * np.where(d <= eta, 1.0 - d / eta, -1.0)
        unary[frames] = np.where(real.any(axis=1)[:, None], value, 0.0)
    return unary


def offline_dp(
    episode: Episode,
    grid: Sequence[ViewingAngle] | None = None,
    smooth_weight: float = 1.0,
    grid_step: float = 30.0,
    eta: float = DEFAULT_ETA,
) -> list[ViewingAngle]:
    """Whole-episode view-path optimization over a discrete grid.

    Maximizes sum_t unary(view_t) - smooth_weight * dist(view_t, view_{t-1})
    by dynamic programming. Consumes the entire episode before emitting any
    angle, so it is an explicitly offline reference method, not an online
    policy.
    """
    views = list(grid) if grid is not None else default_view_grid(grid_step)
    if not views:
        raise InvalidInput("empty view grid")
    grid_arr = np.array([[v.azimuth, v.elevation] for v in views])
    unary = _dp_unaries(episode, grid_arr, eta)
    daz = np.abs(signed_azimuth_delta_array(grid_arr[:, None, 0] - grid_arr[None, :, 0]))
    trans = smooth_weight * np.hypot(daz, grid_arr[:, None, 1] - grid_arr[None, :, 1])
    trans_to = np.ascontiguousarray(trans.T)  # (to, from): each argmax reads one row

    t_total, g_total = unary.shape
    best = unary[0].copy()
    back = np.zeros((t_total, g_total), dtype=np.int64)
    scores = np.empty((g_total, g_total))
    to = np.arange(g_total)
    for t in range(1, t_total):
        np.subtract(best, trans_to, out=scores)
        scores.argmax(axis=1, out=back[t])
        best = scores[to, back[t]] + unary[t]
    path = np.empty(t_total, dtype=np.int64)
    path[-1] = int(np.argmax(best))
    for t in range(t_total - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return [views[g] for g in path]


# ---------------------------------------------------------------------------
# Benchmarks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkRow:
    method: str
    mo: float
    mvd: float
    episodes: int

    def __post_init__(self):
        if not (0.0 <= self.mo <= 1.0) or self.mvd < 0.0:
            raise InvalidInput(f"benchmark row out of range: {self}")


METHOD_NAMES = ("agent", "selector_only", "center_hold", "greedy_salient", "offline_dp", "gt_replay")


def build_methods(
    names: Sequence[str],
    model: PilotModel | None = None,
    grid_step: float = 30.0,
    dp_smooth_weight: float = 1.0,
    eta: float = DEFAULT_ETA,
) -> dict[str, Callable[[Episode], list[ViewingAngle]]]:
    """Resolve method names to episode -> trajectory callables."""
    unknown = [n for n in names if n not in METHOD_NAMES]
    if unknown:
        raise InvalidInput(f"unknown methods {unknown}; valid: {list(METHOD_NAMES)}")
    needs_model = {"agent", "selector_only"}
    if needs_model & set(names) and model is None:
        raise InvalidInput("agent and selector_only methods need a model checkpoint")
    table: dict[str, Callable] = {
        "agent": lambda ep: agent_pilot(ep, model),
        "selector_only": lambda ep: selector_only(ep, model),
        "center_hold": center_hold,
        "greedy_salient": greedy_salient,
        "offline_dp": lambda ep: offline_dp(
            ep, grid_step=grid_step, smooth_weight=dp_smooth_weight, eta=eta
        ),
        "gt_replay": gt_replay,
    }
    return {name: table[name] for name in names}


def empty_frame_count(episode: Episode) -> int:
    """Frames whose slots are all zero-padding (no real detections)."""
    return int((episode.scores == 0.0).all(axis=1).sum())


def benchmark(
    methods: dict[str, Callable[[Episode], list[ViewingAngle]]],
    episodes: Sequence[Episode],
    h_span: float = DEFAULT_H_SPAN,
    jobs: int = 1,
) -> tuple[list[BenchmarkRow], list[dict]]:
    """Evaluate each method on each episode.

    Returns aggregate rows plus per-episode detail records (method, episode
    index, mo, mvd, empty_frames). MVD units are degrees per frame.
    """
    if not episodes:
        raise InvalidInput("benchmark needs at least one episode")
    rows, details = [], []
    empties = [empty_frame_count(ep) for ep in episodes]
    gts = [ep.gt_track for ep in episodes]
    for name, fn in methods.items():
        def run(pair):
            i, ep = pair
            traj = _as_array(fn(ep))
            return i, mean_overlap(traj, gts[i], h_span=h_span), mean_velocity_difference(traj)

        if jobs > 1:
            from concurrent.futures import ThreadPoolExecutor  # kept off the import path

            with ThreadPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(run, enumerate(episodes)))
        else:
            results = [run(pair) for pair in enumerate(episodes)]
        results.sort()
        mos = np.array([r[1] for r in results])
        mvds = np.array([r[2] for r in results])
        rows.append(BenchmarkRow(name, float(mos.mean()), float(mvds.mean()), len(episodes)))
        details.extend(
            {
                "method": name,
                "episode": i,
                "mo": float(mo),
                "mvd": float(mvd),
                "empty_frames": empties[i],
            }
            for i, mo, mvd in results
        )
    return rows, details
