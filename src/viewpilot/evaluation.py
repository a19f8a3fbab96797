"""Metrics (mean overlap, mean velocity difference), baseline pilots, the
offline dynamic-programming view-path optimizer, and benchmark rows.

The metrics take (..., T, 2) angle arrays and reduce the frame axis: MO
averages ``geometry.nfov_iou`` over the frames, and MVD is reported in
degrees per frame. A method maps an episode to a ``geometry.Trajectory`` of
its length, built from arrays the method already holds; the ``agent``
method is ``agent.pilot_episode`` (``RegressorNetwork.steer``, the one B=1
steering loop, folded over the episode), and ``selector_only`` emits the
positions of its picks; built together they read one result per episode.
``benchmark`` runs every method on one episode before the next, stacks each
method's ``Trajectory.array`` per group of equal-length episodes and calls
each metric once per (method, length group).
``offline_dp`` runs over the step x step view grid of ``default_view_grid``,
prepared once per (grid_step, smooth_weight). Benchmark rows carry, per
method, the MO/MVD means over episodes plus per-episode detail records,
including how many frames contained no real detections.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .agent import PilotModel, pilot_episode
from .errors import InvalidInput
from .geometry import DEFAULT_H_SPAN, Trajectory, land_angles, nfov_iou, signed_azimuth_delta_array
from .observation import Episode
# Unused here; perfbench's tracer swaps these bindings and fails a check if one is missing.
from .observation import episode_arrays, synth_scene  # noqa: F401
from .regressor import velocity_array
from .training import DEFAULT_ETA

DEFAULT_GRID_STEP = 30.0
DEFAULT_DP_SMOOTH_WEIGHT = 1.0


def mean_overlap(pred: np.ndarray, gt: np.ndarray, h_span: float = DEFAULT_H_SPAN):
    """Mean per-frame IoU between the predicted and ground-truth view windows
    of two (..., T, 2) angle arrays, one per leading index (a float for a
    (T, 2) pair). The IoUs are summed in frame order (a pairwise ``np.sum``
    would change the last bits).
    """
    if pred.shape != gt.shape or pred.ndim < 2 or pred.shape[-2] == 0:
        raise InvalidInput(f"trajectory shapes {pred.shape} and {gt.shape} differ or are empty")
    iou = nfov_iou(pred, gt, h_span)
    mo = np.add.accumulate(iou, axis=-1)[..., -1] / pred.shape[-2]
    return float(mo) if pred.ndim == 2 else mo


def mean_velocity_difference(pred: np.ndarray):
    """Mean norm of consecutive viewing-angle velocity changes of a (..., T, 2)
    angle array, deg/frame, one per leading index (a float for a (T, 2) one).

    Averages over the T-2 well-defined velocity differences, so it needs at
    least 3 frames.
    """
    if pred.ndim < 2 or pred.shape[-2] < 3:
        raise InvalidInput(f"MVD needs at least 3 frames, got shape {pred.shape}")
    v = velocity_array(pred)[..., 1:, :]  # real velocities, t >= 1
    mvd = np.linalg.norm(np.diff(v, axis=-2), axis=-1).mean(axis=-1)
    return float(mvd) if pred.ndim == 2 else mvd


# ---------------------------------------------------------------------------
# Baseline pilots. All return a trajectory the same length as the episode.
# ---------------------------------------------------------------------------


def center_hold(episode: Episode) -> Trajectory:
    """Never steer: hold the first frame's ground-truth angle."""
    return Trajectory(np.repeat(episode.gt_track[:1], len(episode), axis=0))


def greedy_salient(episode: Episode) -> Trajectory:
    """Jump to the highest-scoring detection every frame (slot 0 by the
    score ordering)."""
    return Trajectory(episode.positions[:, 0])


def selector_only(episode: Episode, picks: np.ndarray) -> Trajectory:
    """Emit the position of the slot the agent's selector picked each frame
    (``picks``, from ``agent.pilot_episode``), skipping the refinement."""
    return Trajectory(episode.positions[np.arange(len(picks)), picks])


def gt_replay(episode: Episode) -> Trajectory:
    """Replay the ground-truth track (upper bound / metric sanity method)."""
    return episode.gt


def _shared_fold(model: PilotModel) -> Callable[[Episode], tuple[Trajectory, np.ndarray]]:
    """``agent.pilot_episode`` for ``agent`` and ``selector_only`` built
    together: a call for the Episode object of the call before reuses its
    result while all it reads (the episode's ``flat``, ``positions`` and
    ``gt_track``, every model weight) equals what it was."""
    last = [None, [], None]  # the episode, copies of what the fold reads, its result

    def fold(episode: Episode) -> tuple[Trajectory, np.ndarray]:
        inputs = [episode.flat, episode.positions, episode.gt_track] + [p.values for p in model.params()]
        if last[0] is not episode or not all(map(np.array_equal, last[1], inputs)):
            last[:] = episode, [a.copy() for a in inputs], pilot_episode(episode, model)
        return last[2]

    return fold


# The DP's dense (G, G) float64 arrays may hold at most this many entries
# (64 MB each): the 5-degree grid's 2,592 views fit, the 4-degree's 4,050 not.
MAX_DP_ENTRIES = 1 << 23


def check_grid_step(step: float) -> None:
    """Refuse a step outside (0, 180] or one whose grid is too large for the
    DP's (G, G) arrays, counting its views as np.arange does."""
    if not 0 < step <= 180:
        raise InvalidInput(f"grid step must be in (0, 180], got {step}")
    start = step / 2.0
    columns, rows = (360.0 - start) / step, (90.0 - (-90.0 + start)) / step
    if not columns * rows <= MAX_DP_ENTRIES:  # before math.ceil: a tiny step's counts are inf
        raise InvalidInput(f"grid step {step} makes more than {MAX_DP_ENTRIES} offline_dp grid views")
    views = math.ceil(columns) * math.ceil(rows)
    if views * views > MAX_DP_ENTRIES:
        raise InvalidInput(
            f"offline_dp takes at most {math.isqrt(MAX_DP_ENTRIES)} grid views, got a {views}-view grid"
        )


def default_view_grid(step: float) -> np.ndarray:
    """Cell centers of a step x step angle grid covering the sphere, as a
    landed (G, 2) angle array; a grid ``check_grid_step`` refuses raises."""
    check_grid_step(step)
    azimuths = np.arange(step / 2.0, 360.0, step)
    elevations = np.arange(-90.0 + step / 2.0, 90.0, step)
    grid = np.stack(np.meshgrid(azimuths, elevations, indexing="ij"), axis=-1)
    return land_angles(grid.reshape(-1, 2))


@functools.lru_cache(maxsize=1)
def _dp_grid(grid_step: float, smooth_weight: float):
    """The grid's (G, 2) view array, the unique azimuths with each view's
    column among them, and the contiguous (to, from) transition
    matrix. Kept for the next call, so an eval pass prepares it once and
    only if offline_dp runs."""
    grid_arr = default_view_grid(grid_step)
    azimuths, column = np.unique(grid_arr[:, 0], return_inverse=True)
    daz = np.abs(signed_azimuth_delta_array(grid_arr[:, None, 0] - grid_arr[None, :, 0]))
    trans = smooth_weight * np.hypot(daz, grid_arr[:, None, 1] - grid_arr[None, :, 1])
    trans_to = np.ascontiguousarray(trans.T)  # (to, from): each argmax reads one row
    return grid_arr, azimuths, column, trans_to


# Frames per block of _dp_unaries: block * G * N stays near this many entries,
# so the running minimum's (block, G) float64 arrays (512 KB at 8 slots) stay
# in a 4 MB L2 cache; sizing by G alone ran 5-degree unaries 1.7x slower there.
_DP_BLOCK_ENTRIES = 1 << 19


def _dp_unaries(
    episode: Episode, grid_arr: np.ndarray, azimuths: np.ndarray, column: np.ndarray, eta: float
) -> np.ndarray:
    """unary[t, g]: score-weighted reward of grid view g against the nearest
    real detection at frame t (zero when the frame has no detections).

    ``azimuths`` are the grid's unique azimuths and ``column`` indexes each
    view's among them. A running minimum over the real slots in slot order
    keeps a view's distance and score where a slot is strictly closer, so
    ties keep the lower slot as argmin does; a padded slot's distance is inf.
    The reward (``reward_array``'s piecewise form) is taken at the kept
    distance. Frames go in blocks.
    """
    (t_total, n), g_total = episode.scores.shape, grid_arr.shape[0]
    unary = np.zeros((t_total, g_total))
    block = max(1, _DP_BLOCK_ENTRIES // (g_total * n))
    for lo in range(0, t_total, block):
        scores, positions = episode.scores[lo : lo + block], episode.positions[lo : lo + block]
        real = scores > 0.0
        nearest = np.full((len(scores), g_total), np.inf)
        score = np.zeros_like(nearest)
        for s in np.flatnonzero(real.any(axis=0)):  # slots padded in every frame are skipped
            pos = positions[:, s, :, None]
            daz = signed_azimuth_delta_array(azimuths - pos[:, 0])[:, column]
            dist = np.hypot(daz, grid_arr[:, 1] - pos[:, 1])  # (block, G)
            dist[~real[:, s]] = np.inf
            score = np.where(dist < nearest, scores[:, s, None], score)
            nearest = np.minimum(nearest, dist)
        value = score * np.where(nearest <= eta, 1.0 - nearest / eta, -1.0)
        unary[lo : lo + block] = np.where(real.any(axis=1)[:, None], value, 0.0)
    return unary


def offline_dp(
    episode: Episode,
    *,
    smooth_weight: float = DEFAULT_DP_SMOOTH_WEIGHT,
    grid_step: float = DEFAULT_GRID_STEP,
    eta: float = DEFAULT_ETA,
) -> Trajectory:
    """Whole-episode view-path optimization over a discrete grid.

    Maximizes sum_t unary(view_t) - smooth_weight * dist(view_t, view_{t-1})
    by dynamic programming. Consumes the entire episode before emitting any
    angle, so it is an explicitly offline reference method, not an online
    policy.

    Costs O(T*G*S + T*G^2) for T frames, G views and S slots. The view
    grid of ``grid_step`` and its transition matrix are prepared once per
    (grid_step, smooth_weight) and kept for the next call, so an eval pass
    over many episodes prepares them once. Ties go to the lower slot when
    picking a view's nearest detection and to the lower view index in the
    recursion. A grid with more than ``MAX_DP_ENTRIES`` view pairs, or an
    ``eta`` or ``smooth_weight`` that is not finite and > 0 / >= 0, raises
    ``InvalidInput`` before any (G, G) array is allocated.
    """
    if not (0.0 < eta < math.inf and 0.0 <= smooth_weight < math.inf):
        raise InvalidInput(
            "offline_dp needs a finite eta > 0 and smooth_weight >= 0, "
            f"got {eta} and {smooth_weight}"
        )
    grid_arr, azimuths, column, trans_to = _dp_grid(grid_step, smooth_weight)
    unary = _dp_unaries(episode, grid_arr, azimuths, column, eta)

    t_total, g_total = unary.shape
    best = unary[0].copy()
    back = np.zeros((t_total, g_total), dtype=np.int64)
    # 64-byte aligned: the recursion ran about 10% slower 16, 32 or 48 bytes past.
    buf = np.empty(g_total * g_total + 8)
    skip = -buf.__array_interface__["data"][0] % 64 // 8
    scores = buf[skip : skip + g_total * g_total].reshape(g_total, g_total)
    flat, rows = scores.ravel(), np.arange(0, g_total * g_total, g_total)
    for t in range(1, t_total):
        np.subtract(best, trans_to, out=scores)
        scores.argmax(axis=1, out=back[t])
        best = flat.take(rows + back[t])  # scores[row, back[t][row]] for every row
        best += unary[t]
    path = np.empty(t_total, dtype=np.int64)
    path[-1] = int(np.argmax(best))
    for t in range(t_total - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return Trajectory(grid_arr[path])


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
MODEL_METHODS = ("agent", "selector_only")  # the methods that run a model


def build_methods(
    names: Sequence[str],
    model: PilotModel | None = None,
    grid_step: float = DEFAULT_GRID_STEP,
    dp_smooth_weight: float = DEFAULT_DP_SMOOTH_WEIGHT,
    eta: float = DEFAULT_ETA,
) -> dict[str, Callable[[Episode], Trajectory]]:
    """Resolve method names to episode -> trajectory callables. An empty
    list, an unknown name, or a method of ``MODEL_METHODS`` without a model
    raises InvalidInput. ``agent`` and ``selector_only`` built together share
    one ``agent.pilot_episode`` call per episode."""
    unknown = [n for n in names if n not in METHOD_NAMES]
    if unknown or not names:
        problem = f"unknown methods {unknown}" if unknown else "no methods given"
        raise InvalidInput(f"{problem}; valid methods: {', '.join(METHOD_NAMES)}")
    if set(MODEL_METHODS) & set(names) and model is None:
        raise InvalidInput(f"the methods {'/'.join(MODEL_METHODS)} need a model checkpoint")
    fold = _shared_fold(model) if set(MODEL_METHODS) <= set(names) else lambda ep: pilot_episode(ep, model)
    table: dict[str, Callable] = {
        "agent": lambda ep: fold(ep)[0],
        "selector_only": lambda ep: selector_only(ep, fold(ep)[1]),
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
    methods: dict[str, Callable[[Episode], Trajectory]],
    episodes: Sequence[Episode],
    h_span: float = DEFAULT_H_SPAN,
    jobs: int = 1,
) -> tuple[list[BenchmarkRow], list[dict]]:
    """Evaluate each method on each episode.

    Returns aggregate rows plus per-episode detail records (method, episode
    index, mo, mvd, empty_frames), both in method order. MVD units are
    degrees per frame. Episodes run one after another, each through every
    method in turn: ``jobs`` must be 1. An episode shorter than the 3 frames
    MVD needs is refused, by index, before any method runs, and a return
    that is not a Trajectory of the episode's length as soon as it is
    returned. Each metric runs once per
    method over the stacked trajectories of each group of equal-length
    episodes, giving the values of one (T, 2) call per episode.
    """
    if not episodes:
        raise InvalidInput("benchmark needs at least one episode")
    if jobs != 1:
        raise InvalidInput(f"benchmark runs episodes one at a time; jobs must be 1, got {jobs}")
    groups: dict[int, list[int]] = {}
    for i, ep in enumerate(episodes):
        if len(ep) < 3:
            raise InvalidInput(f"episode {i} has {len(ep)} frames; MVD needs at least 3")
        groups.setdefault(len(ep), []).append(i)
    arrays = {name: [] for name in methods}  # per method, each episode's (T, 2) array
    for i, ep in enumerate(episodes):
        for name, fn in methods.items():
            traj = fn(ep)
            if not isinstance(traj, Trajectory) or len(traj) != len(ep):
                got = f"{len(traj)} angles" if isinstance(traj, Trajectory) else type(traj).__name__
                raise InvalidInput(
                    f"{name} returned {got} for episode {i} of {len(ep)} frames, "
                    "not a Trajectory of that length"
                )
            arrays[name].append(traj.array)
    rows, details = [], []
    empties = [empty_frame_count(ep) for ep in episodes]
    gts = {t: np.stack([episodes[i].gt_track for i in group]) for t, group in groups.items()}
    for name, trajs in arrays.items():
        mos, mvds = [0.0] * len(episodes), [0.0] * len(episodes)
        for t, group in groups.items():
            pred = np.stack([trajs[i] for i in group])  # (n, T, 2) in C order, as the metrics reduce it
            group_mo = mean_overlap(pred, gts[t], h_span=h_span).tolist()
            group_mvd = mean_velocity_difference(pred).tolist()
            for i, mo, mvd in zip(group, group_mo, group_mvd):
                mos[i], mvds[i] = mo, mvd
        rows.append(BenchmarkRow(name, float(np.mean(mos)), float(np.mean(mvds)), len(episodes)))
        details.extend(
            {"method": name, "episode": i, "mo": mo, "mvd": mvd, "empty_frames": empties[i]}
            for i, (mo, mvd) in enumerate(zip(mos, mvds))
        )
    return rows, details
