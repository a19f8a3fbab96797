"""Frame observations as slot arrays, synthetic scene generation, and
episode files.

A frame observation holds the top-N detected objects as score-ranked slot
arrays: appearance (N, d), positions (N, 2) as (azimuth, elevation) with
azimuth wrapped into [0, 360) and elevation clamped into [-90, 90],
motion histograms (N, k) and scores (N,). Missing detections are zero
padding slots (score 0, position (0, 0)). The flat network input packs all
appearance vectors first, then all positions, then all motion histograms.

An episode stores its T frames once, as whole-episode arrays. ``flat``
(T, (d+2+k)*N) is the only copy of appearance and motion: ``appearance``
(T, N, d) and ``motions`` (T, N, k) are reshaped views of its first and last
blocks. ``positions`` (T, N, 2) in degrees (the half-turn block of ``flat``
does not invert to degrees bit-exactly), ``scores`` (T, N) and the
ground-truth track ``gt_track`` (T, 2) are stored beside it. ``frames``
builds FrameObservation row views on access; ``gt`` is a
``geometry.Trajectory`` over ``gt_track``, as the evaluation methods
return theirs, whose ViewingAngles are built only when read.

The synthetic generator stands in for a detector/tracker pipeline: it
moves K objects on the angle plane, designates one as the main object,
and emits noisy per-frame detections plus a smoothed ground-truth
viewing-angle track.

Episode files are read a block of frame records at a time, so a streamed
episode holds one block whatever its length. A block of records of the right
shape whose lines hold no ``u`` or ``f`` (``true``, ``false``, ``null`` and
``Infinity`` do; no number or canonical key does) is packed into one float64
array and checked once; any other block, or one failing a check, is parsed
record by record to the same result. A record is refused, naming its line,
unless it holds only finite numbers (no booleans), scores in [0, 1], a gt of
two angles, and a gt_object_index in [0, N) on every frame or none.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .diffcore import check_field_types
from .errors import InvalidInput, ParseError, VersionError
from .geometry import (
    Trajectory, ViewingAngle, clamp_elevation, land_angles, signed_azimuth_delta_array, wrap_azimuth,
)

EPISODE_FORMAT_VERSION = 1
_BLOCK_FRAMES = 64  # frame records an episode reader reads and checks as one block

# Angle-valued entries of the flat network input are stored in half-turn
# units so every feature block is O(1); raw tanh units saturate on degree
#-scale inputs. Slot positions, episode files, and geometry stay in degrees.
ANGLE_SCALE = 180.0

# Fixed appearance signature of the main object. Constant across episodes
# and seeds so that a selector trained on some scenes can recognize the
# main object in unseen ones; distractor signatures are drawn per episode.
_MAIN_PROTO_SEED = 360


def main_appearance_prototype(dim: int, scale: float = 2.0) -> np.ndarray:
    rng = np.random.default_rng(_MAIN_PROTO_SEED)
    v = rng.normal(size=dim)
    return scale * v / np.linalg.norm(v)


@dataclass(frozen=True)
class FrameObservation:
    """N score-ranked detection slots plus their flat network input."""

    appearance: np.ndarray  # (N, d)
    positions: np.ndarray  # (N, 2) as (azimuth, elevation)
    motions: np.ndarray  # (N, k)
    scores: np.ndarray  # (N,)
    flat: np.ndarray  # ((d+2+k)*N,)

    def __eq__(self, other):
        if not isinstance(other, FrameObservation):
            return NotImplemented
        return all(map(np.array_equal, vars(self).values(), vars(other).values()))


def _pack_flat(appearance: np.ndarray, positions: np.ndarray, motions: np.ndarray) -> np.ndarray:
    """The flat network input of (..., N, .) slot arrays: the appearance
    block, the half-turn-unit position block, then the motion block."""
    lead = appearance.shape[:-2]
    blocks = (appearance, (positions - (180.0, 0.0)) / ANGLE_SCALE, motions)
    return np.concatenate([b.reshape(*lead, -1) for b in blocks], axis=-1)


def rank_slots(
    appearance: np.ndarray,
    positions: np.ndarray,
    motions: np.ndarray,
    scores: np.ndarray,
    n: int,
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Rank each frame's detections into ``n`` slots.

    Takes (T, K, .) detection arrays: appearance (T, K, d), positions
    (T, K, 2) in degrees (wrapped and clamped here), motions (T, K, k) and
    scores (T, K). Per frame, detections are sorted by score descending,
    ties by azimuth then elevation ascending, and truncated or zero-padded
    to exactly ``n`` slots, so the result does not depend on the input
    order. Returns the (T, n, .) slot arrays (appearance, positions,
    motions, scores) and ``rank`` (T, K): the slot detection j of frame t
    lands in, ``>= n`` when truncated.
    """
    if n < 1:
        raise InvalidInput(f"slot count must be >= 1, got {n}")
    lead = scores.shape
    if len(lead) != 2 or (appearance.shape[:-1], positions.shape, motions.shape[:-1]) != (
        lead, lead + (2,), lead
    ):
        raise InvalidInput(
            f"detection arrays disagree: scores {lead}, appearance {appearance.shape}, "
            f"positions {positions.shape}, motions {motions.shape}"
        )
    positions = land_angles(positions)
    order = np.lexsort((positions[..., 1], positions[..., 0], -scores), axis=-1)
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(lead[1]), axis=-1)
    frames = np.arange(lead[0])[:, None]
    kept = order[:, :n]

    def slots(a: np.ndarray) -> np.ndarray:
        out = np.zeros((lead[0], n) + a.shape[2:])
        out[:, : kept.shape[1]] = a[frames, kept]
        return out

    return tuple(slots(a) for a in (appearance, positions, motions, scores)), rank


@dataclass(eq=False)
class Episode:
    """T frames of score-ranked slot arrays with a ground-truth track.

    Construction packs ``flat`` from the slot arrays and keeps
    ``appearance`` and ``motions`` only as views of it. Equality compares
    the arrays. ``gt_object_index`` records which slot holds the designated
    main object per frame; it is generator metadata for diagnostics only
    and is never read by training.
    """

    appearance: np.ndarray  # (T, N, d), a view of flat's first block
    positions: np.ndarray  # (T, N, 2) as (azimuth, elevation)
    motions: np.ndarray  # (T, N, k), a view of flat's last block
    scores: np.ndarray  # (T, N)
    gt_track: np.ndarray  # (T, 2) as (azimuth, elevation)
    gt_object_index: list[int] | None = None
    flat: np.ndarray = field(init=False)  # (T, (d+2+k)*N)

    def __post_init__(self):
        lead = self.scores.shape
        shapes = (self.appearance.shape[:-1], self.positions.shape, self.motions.shape[:-1])
        if len(lead) != 2 or lead[0] < 2 or shapes != (lead, lead + (2,), lead) or (
            self.gt_track.shape != (lead[0], 2)
            or self.gt_object_index is not None and len(self.gt_object_index) != lead[0]
        ):
            raise InvalidInput(
                f"episode needs >= 2 frames of matching slot arrays and gt, got scores {lead}, "
                f"positions {self.positions.shape}, gt {self.gt_track.shape} and {shapes}"
            )
        t_total, n, d = self.appearance.shape
        self.flat = _pack_flat(self.appearance, self.positions, self.motions)
        self.appearance = self.flat[:, : d * n].reshape(t_total, n, d)
        self.motions = self.flat[:, (d + 2) * n :].reshape(t_total, n, -1)

    def __len__(self) -> int:
        return self.scores.shape[0]

    def __eq__(self, other):
        if not isinstance(other, Episode):
            return NotImplemented
        fields = ("flat", "positions", "scores", "gt_track")
        return (
            self.appearance.shape == other.appearance.shape
            and all(np.array_equal(getattr(self, f), getattr(other, f)) for f in fields)
            and self.gt_object_index == other.gt_object_index
        )

    @property
    def frames(self) -> list[FrameObservation]:
        """Per-frame row views of the slot arrays, built on each access."""
        rows = (self.appearance, self.positions, self.motions, self.scores, self.flat)
        return list(map(FrameObservation, *rows))

    @property
    def gt(self) -> Trajectory:
        """The ground-truth track as a Trajectory over a landed copy of
        ``gt_track``, built on each access."""
        return Trajectory(self.gt_track)


def episode_arrays(episode: Episode) -> Episode:
    """The packed arrays of an episode: the episode itself, since it stores
    nothing else (``flat``, ``positions``, ``motions``, ``scores``,
    ``gt_track``)."""
    return episode


@dataclass(frozen=True)
class SceneConfig:
    """Parameters of the synthetic scene generator.

    Speeds are degrees per frame. A scene "action center" follows a
    piecewise-constant velocity whose heading changes by at most
    ``turn_limit`` degrees between segments and whose elevation reflects
    off ``+-elevation_limit``. Each object rides a bounded offset around
    that center (reflected inside ``+-cluster_radius`` per axis), the way
    foreground objects cluster around the action in sports footage.
    Observed positions carry Gaussian jitter of ``position_noise``
    degrees, emulating detector box noise, while the ground-truth track
    smooths the true main-object path with a centered moving average.
    Construction rejects a mistyped or out-of-range field with InvalidInput.
    """

    frames: int = 200
    objects: int = 4
    slots: int = 8
    appearance_dim: int = 16
    motion_bins: int = 12
    center_speed_min: float = 0.5
    center_speed_max: float = 2.0
    speed_min: float = 0.3
    speed_max: float = 1.5
    turn_limit: float = 60.0
    segment_min: int = 20
    segment_max: int = 40
    elevation_limit: float = 45.0
    cluster_radius: float = 50.0
    position_noise: float = 1.5
    appearance_noise: float = 0.3
    appearance_scale: float = 2.0
    score_shape: float = 2.0
    main_score_bias: float = 1.0
    gt_smooth_window: int = 5

    def __post_init__(self):
        check_field_types(self)
        rules = (
            (self.frames >= 2, "frames >= 2"),
            (1 <= self.objects <= self.slots, "1 <= objects <= slots"),
            (min(self.appearance_dim, self.motion_bins, self.gt_smooth_window) >= 1,
             "appearance_dim, motion_bins and gt_smooth_window >= 1"),
            (1 <= self.segment_min <= self.segment_max, "1 <= segment_min <= segment_max"),
            (self.center_speed_min <= self.center_speed_max, "center_speed_min <= center_speed_max"),
            (self.speed_min <= self.speed_max, "speed_min <= speed_max"),
            (min(self.turn_limit, self.elevation_limit, self.cluster_radius) >= 0,
             "turn_limit, elevation_limit and cluster_radius >= 0"),
            (min(self.score_shape, self.score_shape + self.main_score_bias) > 0,
             "score_shape > 0 and score_shape + main_score_bias > 0"),
        )
        broken = [rule for ok, rule in rules if not ok]
        if broken:
            raise InvalidInput(f"scene config needs {'; '.join(broken)}")


def _step(speed: float, heading: float) -> tuple[float, float]:
    """(x, y) step of ``speed`` along ``heading`` degrees by numpy's cos, sin."""
    rad = np.deg2rad(heading)
    return float(speed * np.cos(rad)), float(speed * np.sin(rad))


def _center_path(config: SceneConfig, rng: np.random.Generator) -> np.ndarray:
    """Action-center positions (T, 2): piecewise-constant velocity, azimuth
    free-running, elevation reflected off the band edge."""
    limit, fold = config.elevation_limit, 2.0 * config.elevation_limit  # reflect: +-fold - el
    az = rng.uniform(0.0, 360.0)
    el = rng.uniform(-limit / 2.0, limit / 2.0)
    speed = rng.uniform(config.center_speed_min, config.center_speed_max)
    heading = rng.uniform(0.0, 360.0)
    rows, remaining = [], 0
    for t in range(config.frames):
        if remaining == 0:
            remaining = int(rng.integers(config.segment_min, config.segment_max + 1))
            if t > 0:
                heading += rng.uniform(-config.turn_limit, config.turn_limit)
                speed = rng.uniform(config.center_speed_min, config.center_speed_max)
            d_az, d_el = _step(speed, heading)
        rows.append((az, el))
        az, el = wrap_azimuth(az + d_az), el + d_el
        if abs(el) > limit:
            heading, el = -heading, (fold if el > 0.0 else -fold) - el
            d_az, d_el = _step(speed, heading)
        el = clamp_elevation(el)
        remaining -= 1
    return np.array(rows)


def _offset_path(config: SceneConfig, rng: np.random.Generator) -> np.ndarray:
    """One object's offsets (T, 2) from the action center: piecewise-constant
    velocity reflected inside the +-cluster_radius box."""
    radius, fold = config.cluster_radius, 2.0 * config.cluster_radius  # reflect: +-fold - x
    x, y = rng.uniform(-radius / 2.0, radius / 2.0, size=2).tolist()
    speed = rng.uniform(config.speed_min, config.speed_max)
    heading = rng.uniform(0.0, 360.0)
    rows, remaining = [], 0
    for t in range(config.frames):
        if remaining == 0:
            remaining = int(rng.integers(config.segment_min, config.segment_max + 1))
            if t > 0:
                heading += rng.uniform(-config.turn_limit, config.turn_limit)
                speed = rng.uniform(config.speed_min, config.speed_max)
            d_x, d_y = _step(speed, heading)
        rows.append((x, y))
        x, y = x + d_x, y + d_y
        if abs(x) > radius or abs(y) > radius:
            if abs(x) > radius:
                x, heading = (fold if x > 0.0 else -fold) - x, (180.0 - heading) % 360.0
            if abs(y) > radius:
                y, heading = (fold if y > 0.0 else -fold) - y, (-heading) % 360.0
            d_x, d_y = _step(speed, heading)
        remaining -= 1
    return np.array(rows)


def _object_paths(config: SceneConfig, center: np.ndarray, rng: np.random.Generator):
    """True per-frame positions (T, 2) and velocities (T, 2) for one object
    riding a bounded offset around the action center."""
    pos = land_angles(center + _offset_path(config, rng))
    vel = np.empty_like(pos)
    vel[1:, 0] = signed_azimuth_delta_array(np.diff(pos[:, 0]))
    vel[1:, 1] = np.diff(pos[:, 1])
    vel[0] = vel[1]
    return pos, vel


def _motion_histogram(vel: np.ndarray, bins: int) -> np.ndarray:
    """Speed-weighted direction histogram, linearly smeared over the two
    nearest of ``bins`` orientation bins (a synthetic optical-flow-histogram
    stand-in)."""
    t_total = vel.shape[0]
    speed = np.linalg.norm(vel, axis=1)
    direction = np.degrees(np.arctan2(vel[:, 1], vel[:, 0])) % 360.0
    hist = np.zeros((t_total, bins))
    width = 360.0 / bins
    idx = direction / width
    lo = np.floor(idx).astype(int) % bins
    hi = (lo + 1) % bins
    frac = idx - np.floor(idx)
    rows = np.arange(t_total)
    hist[rows, lo] += speed * (1.0 - frac)
    hist[rows, hi] += speed * frac
    return hist


def _smooth_track(pos: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average of an angle track; azimuth is unwrapped
    before averaging so the smoothing never crosses the 0/360 seam."""
    t_total, half = pos.shape[0], window // 2
    az = np.concatenate([[pos[0, 0]], pos[0, 0] + np.cumsum(signed_azimuth_delta_array(np.diff(pos[:, 0])))])
    track = np.stack([az, pos[:, 1]])  # (2, T): each mean reduces one contiguous row
    mean = np.empty_like(track)
    full = t_total - 2 * half  # frames whose whole 2*half+1 window fits
    if full > 0:
        windows = np.lib.stride_tricks.sliding_window_view(track, 2 * half + 1, axis=-1)
        mean[:, half : half + full] = windows.mean(axis=-1)
    for t in [*range(min(half, t_total)), *range(max(half, t_total - half), t_total)]:
        mean[:, t] = track[:, max(0, t - half) : t + half + 1].mean(axis=-1)
    return land_angles(mean.T)


def synth_scene(config: SceneConfig, seed) -> Episode:
    """Generate one deterministic synthetic episode.

    Exactly one object is the main object: it carries a fixed appearance
    signature (shared across all episodes) and its per-frame score is
    Beta-distributed with a higher mean than the distractors' but not
    deterministically highest. All random draws are independent of the
    slot count, so regenerating with a different ``slots`` value yields
    the same scene content under different padding. The order of the rng
    draws is part of this contract: the golden digests in the tests pin it.
    """
    rng = np.random.default_rng(seed)
    k_objects, t_total = config.objects, config.frames

    main = int(rng.integers(k_objects))
    protos = np.empty((k_objects, config.appearance_dim))
    for j in range(k_objects):
        v = rng.normal(size=config.appearance_dim)
        protos[j] = config.appearance_scale * v / np.linalg.norm(v)
    protos[main] = main_appearance_prototype(config.appearance_dim, config.appearance_scale)

    center = _center_path(config, rng)
    true_pos = np.empty((t_total, k_objects, 2))
    motion = np.empty((t_total, k_objects, config.motion_bins))
    for j in range(k_objects):
        true_pos[:, j], vel = _object_paths(config, center, rng)
        motion[:, j] = _motion_histogram(vel, config.motion_bins)

    a0 = config.score_shape
    scores = rng.beta(a0, a0, size=(t_total, k_objects))
    if config.main_score_bias != 0.0:
        scores[:, main] = rng.beta(a0 + config.main_score_bias, a0, size=t_total)

    appearance = protos[None, :, :] + config.appearance_noise * rng.normal(
        size=(t_total, k_objects, config.appearance_dim)
    )
    jitter = config.position_noise * rng.normal(size=(t_total, k_objects, 2))

    gt_track = _smooth_track(true_pos[:, main], config.gt_smooth_window)

    slots, rank = rank_slots(appearance, true_pos + jitter, motion, scores, config.slots)
    return Episode(*slots, gt_track, rank[:, main].tolist())


def generate_dataset(config: SceneConfig, seed: int, count: int) -> list[Episode]:
    """Generate ``count`` independent episodes; episode i uses seed (seed, i)."""
    return [synth_scene(config, [seed, i]) for i in range(count)]


# ---------------------------------------------------------------------------
# Episode files: UTF-8 JSON lines. Each episode starts with a header record
# {format_version, d, k, n, t} followed by t frame records, read _BLOCK_FRAMES
# at a time. json serializes floats with repr, so round-trips are bit-exact.
# ---------------------------------------------------------------------------


def save_episodes(episodes: Sequence[Episode], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ep in episodes:
            (t, n, d), k = ep.appearance.shape, ep.motions.shape[2]
            header = {"format_version": EPISODE_FORMAT_VERSION, "d": d, "k": k, "n": n, "t": t}
            fh.write(json.dumps(header, separators=(",", ":")) + "\n")
            arrays = (ep.scores, ep.positions, ep.appearance, ep.motions, ep.gt_track)
            idxs = ep.gt_object_index if ep.gt_object_index is not None else [None] * t
            # Row by row: one whole-episode tolist holds ~3 MB of floats at once.
            for rows, main_idx in zip(zip(*arrays), idxs):
                scores, positions, appearance, motions, gt = (r.tolist() for r in rows)
                slots = zip(scores, positions, appearance, motions)
                rec = {"objects": [[s, az, el, a, m] for s, (az, el), a, m in slots], "gt": gt}
                if main_idx is not None:
                    rec["gt_object_index"] = main_idx
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def _parse_json_line(line: str, lineno: int) -> dict:
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed record: {exc.msg}", line=lineno) from exc
    except ValueError as exc:  # an integer of too many digits
        raise ParseError(f"malformed record: {exc}", line=lineno) from exc
    if not isinstance(rec, dict):
        raise ParseError("record is not a JSON object", line=lineno)
    return rec


def _parse_header(rec: dict, lineno: int) -> dict:
    missing = {"format_version", "d", "k", "n", "t"} - rec.keys()
    if missing:
        raise ParseError(f"header missing fields {sorted(missing)}", line=lineno)
    if rec["format_version"] != EPISODE_FORMAT_VERSION:
        raise VersionError(
            f"unsupported episode format version {rec['format_version']} "
            f"(expected {EPISODE_FORMAT_VERSION})",
            line=lineno,
        )
    for field, least in (("d", 1), ("k", 1), ("n", 1), ("t", 2)):
        value = rec[field]
        if type(value) is not int or value < least:
            raise ParseError(
                f"header field {field} must be an integer >= {least}, got {value!r}", line=lineno
            )
    return rec


def _finite(values, shape: tuple) -> np.ndarray:
    """A float64 array of ``shape`` from JSON numbers (not booleans), all finite."""
    arr = np.array(values)
    if arr.shape != shape or arr.dtype.kind not in "iuf":
        raise ValueError(f"expected {shape} numbers, got shape {arr.shape} of {arr.dtype}")
    if bool in map(type, np.array(values, dtype=object).flat):
        raise ValueError(f"expected {shape} numbers, got a boolean")
    arr = arr.astype(np.float64)
    if not np.isfinite(arr).all():
        raise ValueError("non-finite value")
    return arr


def _parse_frame(text: str, header: dict, lineno: int, has_idx: bool | None) -> tuple:
    """A frame record line as a block of one, or the ParseError of its first fault;
    gt_object_index must be present if ``has_idx`` is True, absent if False, either if None."""
    if not text:
        raise ParseError("expected frame record, found end of file", line=lineno)
    rec, n, d, k = _parse_json_line(text, lineno), header["n"], header["d"], header["k"]
    try:
        objects, main_idx = rec["objects"], rec.get("gt_object_index")
        gt = ViewingAngle(rec["gt"][0], rec["gt"][1])
        if len(objects) != n:
            raise ParseError(f"expected {n} objects, found {len(objects)}", line=lineno)
        if any(len(o) != 5 for o in objects):
            raise ValueError("objects are [score, azimuth, elevation, appearance, motion]")
        scores, azimuths, elevations, appearance, motions = zip(*objects)
        scores = _finite(scores, (n,))
        if not np.all((scores >= 0.0) & (scores <= 1.0)):
            raise ValueError(f"scores must be in [0, 1], got {scores.tolist()}")
        angles = _finite((azimuths, elevations), (2, n))
        appearance, motions = _finite(appearance, (n, d)), _finite(motions, (n, k))
        if len(rec["gt"]) != 2 or bool in map(type, rec["gt"]):
            raise ValueError(f"gt must be two numbers [azimuth, elevation], got {rec['gt']!r}")
        if main_idx is not None and (type(main_idx) is not int or not 0 <= main_idx < n):
            raise ValueError(f"gt_object_index must be an integer in [0, {n}), got {main_idx!r}")
        if has_idx is not None and has_idx != (main_idx is not None):
            raise ValueError("gt_object_index must be on every frame of an episode or on none")
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad frame record: {exc}", line=lineno) from exc
    gt = np.array([[gt.azimuth, gt.elevation]])
    return appearance[None], land_angles(angles.T[None]), motions[None], scores[None], gt, [main_idx]


def _read_block(texts: list, header: dict, has_idx: bool | None) -> tuple | None:
    """Frame record lines as one block of :func:`_frame_blocks`, its fields
    views of one float64 array, or None. Below 2**63 in magnitude an integer
    converts to the float that :func:`_parse_frame` gives it."""
    n, d, k, c = header["n"], header["d"], header["k"], len(texts)
    if any("u" in text or "f" in text for text in texts):
        return None
    values, idxs = [], []
    try:
        for rec in map(json.loads, texts):
            objects, gt = rec["objects"], rec["gt"]
            if len(objects) != n or len(gt) != 2:
                return None
            for s, az, el, app, mot in objects:
                if len(app) != d or len(mot) != k:
                    return None
                values += (s, az, el)
                values += app
                values += mot
            values += gt
            idxs.append(rec.get("gt_object_index"))
        block = np.empty((c, n * (3 + d + k) + 2))  # per frame: n [s, az, el, *app, *mot], gt
        struct.pack_into(f"{block.size}d", block, 0, *values)
    except (KeyError, TypeError, ValueError, struct.error):
        return None
    slots, gt = block[:, :-2].reshape(c, n, 3 + d + k), block[:, -2:]
    scores = slots[..., 0]
    has_idx = idxs[0] is not None if has_idx is None else has_idx
    if not (
        (np.abs(block) < 2.0**63).all()  # false on NaN and infinities too
        and ((scores >= 0.0) & (scores <= 1.0)).all()
        and (all(type(i) is int and 0 <= i < n for i in idxs) if has_idx else idxs.count(None) == c)
    ):
        return None
    positions = land_angles(slots[..., 1:3])
    return slots[..., 3 : 3 + d], positions, slots[..., 3 + d :], scores, land_angles(gt), idxs


def _frame_blocks(fh, header: dict, lineno: int) -> Iterator[tuple]:
    """The t frame records after the header at ``lineno`` in blocks of c <=
    _BLOCK_FRAMES: appearance (c, n, d), positions (c, n, 2), motions (c, n, k),
    scores (c, n), gt (c, 2) and c gt_object_index values. A block that fails
    a check is parsed again record by record, to name the bad line."""
    has_idx = None  # whether the frames carry gt_object_index: None until the first says
    end = lineno + 1 + header["t"]
    for first in range(lineno + 1, end, _BLOCK_FRAMES):
        texts = _lines(fh, min(_BLOCK_FRAMES, end - first))
        blocks = [_read_block(texts, header, has_idx)]
        if blocks[0] is None:  # each record is parsed with the has_idx of those before it
            blocks = (_parse_frame(s, header, at, has_idx) for at, s in enumerate(texts, first))
        for block in blocks:
            has_idx = block[5][0] is not None
            yield block


def _not_utf8(path) -> ParseError:
    """The ParseError of a file that is not UTF-8, at its first such line: the
    text reader decodes many lines at once, so it may fail on an earlier one."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return ParseError(f"not UTF-8 text: {exc}", line=lineno)
    return ParseError("not UTF-8 text")


def _lines(fh, count: int | None = None) -> list[str]:
    """The next ``count`` lines of the text file ``fh`` ('' past its end), or
    all the rest; a file that is not UTF-8 raises :func:`_not_utf8`'s error."""
    try:
        return list(fh) if count is None else [fh.readline() for _ in range(count)]
    except UnicodeDecodeError:
        raise _not_utf8(fh.name) from None


def _episode_blocks(path) -> Iterator[tuple[dict, Iterator]]:
    """Yield (header, :func:`_frame_blocks` iterator) per episode, lazily."""
    with open(path, "r", encoding="utf-8") as fh:
        lineno = 0
        while True:
            line = _lines(fh, 1)[0]
            if not line:
                return
            lineno += 1
            if not line.strip():
                raise ParseError("unexpected blank line", line=lineno)
            header = _parse_header(_parse_json_line(line, lineno), lineno)
            blocks = _frame_blocks(fh, header, lineno)
            yield header, blocks
            for _ in blocks:  # drain any frames the caller skipped so episodes stay aligned
                pass
            lineno += header["t"]


def stream_episodes(path) -> Iterator[tuple[dict, Iterator]]:
    """Yield (header, frame_iterator) per episode, reading lazily.

    Each frame iterator yields (FrameObservation, gt ViewingAngle,
    gt_object_index or None) and must be consumed before advancing to the
    next episode. Frames are row views of one block's arrays, so peak memory
    is one block whatever the episode's length; a bad record raises its
    ParseError after the frames before it are yielded.
    """
    for header, blocks in _episode_blocks(path):
        yield header, _block_frames(blocks)


def _block_frames(blocks: Iterator[tuple]) -> Iterator[tuple]:
    for *slots, gt, idxs in blocks:
        frames = map(FrameObservation, *slots, _pack_flat(*slots[:3]))
        yield from zip(frames, Trajectory(gt), idxs)


def load_episodes(path) -> list[Episode]:
    """Load every episode in the file; inverse of :func:`save_episodes`.
    Blocks of frames are copied into arrays sized by the episode's header."""
    episodes = []
    for header, blocks in _episode_blocks(path):
        t_total, n, d, k = (header[f] for f in "tndk")
        try:
            arrays = [np.empty((t_total, *shape)) for shape in ((n, d), (n, 2), (n, k), (n,), (2,))]
        except (MemoryError, ValueError):  # so large that some frame must be bad: find it
            for _ in blocks:
                pass
            raise ParseError(f"episode header asks for {t_total} frames of {n} slots") from None
        idxs = []
        for block in blocks:
            for whole, part in zip(arrays, block):
                whole[len(idxs) : len(idxs) + len(part)] = part
            idxs += block[5]
        episodes.append(Episode(*arrays, idxs if idxs[0] is not None else None))
    return episodes
