"""Tests for slot ranking, the synthetic scene generator, and episode files."""

import dataclasses
import hashlib
import json
import math
from collections import Counter

import numpy as np
import pytest

from viewpilot import observation
from viewpilot.errors import InvalidInput, ParseError, VersionError
from viewpilot.geometry import (
    ViewingAngle,
    clamp_elevation,
    land_angles,
    signed_azimuth_delta,
    signed_azimuth_delta_array,
    wrap_azimuth,
)
from viewpilot.observation import (
    Episode,
    FrameObservation,
    SceneConfig,
    _center_path,
    _offset_path,
    _pack_flat,
    _smooth_track,
    episode_arrays,
    generate_dataset,
    load_episodes,
    rank_slots,
    save_episodes,
    stream_episodes,
    synth_scene,
)


def angular_distance(a: ViewingAngle, b: ViewingAngle) -> float:
    """Euclidean norm of the wrap-aware offset between two viewing angles."""
    return math.hypot(signed_azimuth_delta(b.azimuth - a.azimuth), b.elevation - a.elevation)


def _detections(scores, az=None, el=None, d=4, k=3, seed=0):
    """One frame of K detections as (1, K, .) arrays."""
    rng = np.random.default_rng(seed)
    count = len(scores)
    az = np.zeros(count) if az is None else np.asarray(az, dtype=float)
    el = np.zeros(count) if el is None else np.asarray(el, dtype=float)
    return (
        rng.normal(size=(1, count, d)),
        np.stack([az, el], axis=-1)[None],
        rng.normal(size=(1, count, k)),
        np.asarray(scores, dtype=float)[None],
    )


def _frame(detections, n):
    """Frame 0 of rank_slots' slot arrays as a FrameObservation."""
    (app, pos, mot, scores), _ = rank_slots(*detections, n)
    return FrameObservation(app[0], pos[0], mot[0], scores[0], _pack_flat(app, pos, mot)[0])


class TestMakeFrameObservation:
    """rank_slots makes the frame observations of a scene's detections."""

    def test_sorted_by_score_descending(self):
        frame = _frame(_detections([0.9, 0.5, 0.7], az=[1, 2, 3]), 3)
        assert frame.scores.tolist() == [0.9, 0.7, 0.5]
        assert frame.positions[:, 0].tolist() == [1, 3, 2]

    def test_padding_with_zero_objects(self):
        frame = _frame(_detections([0.4]), 4)
        assert frame.scores.tolist() == [0.4, 0.0, 0.0, 0.0]
        assert not frame.positions[1:].any()
        assert not frame.appearance[1:].any() and not frame.motions[1:].any()

    def test_order_invariance(self):
        app, pos, mot, scores = _detections([0.9, 0.5, 0.7], az=[1, 2, 3])
        base = _frame((app, pos, mot, scores), 4)
        for perm in ([2, 0, 1], [1, 2, 0], [2, 1, 0]):
            other = _frame((app[:, perm], pos[:, perm], mot[:, perm], scores[:, perm]), 4)
            assert other == base

    def test_score_ties_broken_by_position(self):
        frame = _frame(_detections([0.5] * 4, az=[30, 370, 20, 20], el=[0, 0, 5, -5]), 4)
        assert frame.positions.tolist() == [[10, 0], [20, -5], [20, 5], [30, 0]]

    def test_positions_wrap_and_clamp(self):
        frame = _frame(_detections([0.9, 0.8, 0.7], az=[-10, 720, -1e-300], el=[95, -100, 3]), 3)
        assert frame.positions.tolist() == [[350, 90], [0, -90], [0, 3]]

    def test_flat_layout_and_length(self):
        d, k, n = 4, 3, 5
        app, pos, mot, scores = _detections([0.8], az=[15], el=[-4], d=d, k=k, seed=9)
        frame = _frame((app, pos, mot, scores), n)
        assert frame.flat.shape == ((d + 2 + k) * n,)
        # appearance block, then position block (half-turn units), then motion block
        assert np.array_equal(frame.flat[:d], app[0, 0])
        assert frame.flat[d * n] == (15 - 180.0) / 180.0
        assert frame.flat[d * n + 1] == -4 / 180.0
        assert frame.flat[d * n + 2] == -1.0  # a padding slot sits at (0, 0)
        assert np.array_equal(frame.flat[(d + 2) * n : (d + 2) * n + k], mot[0, 0])

    def test_dimension_mismatch_rejected(self):
        app, pos, mot, scores = _detections([0.5, 0.6])
        with pytest.raises(InvalidInput):
            rank_slots(app, pos, mot[:, :1], scores, 4)
        with pytest.raises(InvalidInput):
            rank_slots(app, pos[..., :1], mot, scores, 4)
        with pytest.raises(InvalidInput):
            rank_slots(app[0], pos, mot, scores, 4)
        with pytest.raises(InvalidInput):
            rank_slots(app, pos, mot, scores, 0)

    def test_truncates_to_top_n(self):
        slots, rank = rank_slots(*_detections([0.1, 0.9, 0.5, 0.7], az=[0, 1, 2, 3]), 2)
        assert slots[3][0].tolist() == [0.9, 0.7]
        assert rank.tolist() == [[3, 0, 2, 1]]  # ranks >= 2 were cut

    def test_frames_rank_independently(self):
        rng = np.random.default_rng(4)
        app, mot = rng.normal(size=(6, 5, 4)), rng.normal(size=(6, 5, 3))
        pos = rng.choice([-350.0, 10.0, 370.0], size=(6, 5, 2))
        scores = rng.choice([0.2, 0.5, 0.8], size=(6, 5))  # with ties
        slots, rank = rank_slots(app, pos, mot, scores, 4)
        for t in range(6):
            one = slice(t, t + 1)
            alone, alone_rank = rank_slots(app[one], pos[one], mot[one], scores[one], 4)
            assert all(np.array_equal(a[t], b[0]) for a, b in zip(slots, alone))
            assert rank[t].tolist() == alone_rank[0].tolist()
            for j in np.flatnonzero(rank[t] < 4):
                assert slots[3][t, rank[t, j]] == scores[t, j]


SMALL = SceneConfig(frames=40, objects=3, slots=4, appearance_dim=6, motion_bins=5)


class TestSynthScene:
    def test_deterministic(self):
        assert synth_scene(SMALL, 7) == synth_scene(SMALL, 7)

    def test_seed_changes_content(self):
        assert synth_scene(SMALL, 7) != synth_scene(SMALL, 8)

    def test_static_scene_has_constant_gt(self):
        cfg = dataclasses.replace(
            SMALL, speed_min=0.0, speed_max=0.0, center_speed_min=0.0, center_speed_max=0.0
        )
        ep = synth_scene(cfg, 3)
        # constant up to the rounding of the moving-average sums
        assert all(angular_distance(g, ep.gt[0]) < 1e-12 for g in ep.gt)

    def test_invalid_configs_rejected(self):
        with pytest.raises(InvalidInput):
            synth_scene(dataclasses.replace(SMALL, objects=5, slots=4), 0)
        with pytest.raises(InvalidInput):
            synth_scene(dataclasses.replace(SMALL, frames=1), 0)

    def test_unbiased_scores_make_main_top_half_the_time(self):
        # With the score bias removed and two objects, the main object holds
        # the top score on ~50% of frames (Monte-Carlo over 10000 frames).
        cfg = SceneConfig(
            frames=10_000, objects=2, slots=2, appearance_dim=4, motion_bins=4,
            main_score_bias=0.0,
        )
        ep = synth_scene(cfg, 11)
        top_rate = np.mean([idx == 0 for idx in ep.gt_object_index])
        assert top_rate == pytest.approx(0.5, abs=0.05)

    def test_biased_scores_put_main_on_top_more_often_but_not_always(self):
        cfg = dataclasses.replace(SMALL, frames=2000)
        ep = synth_scene(cfg, 5)
        top_rate = np.mean([idx == 0 for idx in ep.gt_object_index])
        # above the uniform 1/3 rate for 3 objects, but far from certain
        assert 1 / 3 + 0.05 < top_rate < 0.95

    def test_gt_velocity_bounded_by_speed_limit(self):
        ep = synth_scene(SMALL, 13)
        slack = 0.5  # smoothing / wrap arithmetic headroom
        speed_bound = SMALL.center_speed_max + 2.0 * SMALL.speed_max  # center plus offset step
        for a, b in zip(ep.gt, ep.gt[1:]):
            assert angular_distance(a, b) <= speed_bound + slack

    def test_gt_tracks_main_object(self):
        ep = synth_scene(SMALL, 17)
        arrays = episode_arrays(ep)
        for t in range(len(ep)):
            slot = ep.gt_object_index[t]
            pos = ViewingAngle(arrays.positions[t, slot, 0], arrays.positions[t, slot, 1])
            # observed main position = true position + jitter; gt is the
            # smoothed true track, so they stay within a few degrees
            assert angular_distance(pos, ep.gt[t]) < 10 * SMALL.position_noise + SMALL.speed_max * 3

    def test_motion_histogram_mass_equals_speed(self):
        cfg = dataclasses.replace(SMALL, position_noise=0.0)
        ep = synth_scene(cfg, 19)
        arrays = episode_arrays(ep)
        real = arrays.scores[0] > 0
        speeds = arrays.motions[0, real].sum(axis=1)
        assert np.all(speeds >= cfg.speed_min - 1e-9)
        assert np.all(speeds <= cfg.speed_max + 1e-9)

    def test_slot_count_does_not_change_scene_content(self):
        wide = synth_scene(dataclasses.replace(SMALL, slots=4), 23)
        wider = synth_scene(dataclasses.replace(SMALL, slots=6), 23)
        a, b = episode_arrays(wide), episode_arrays(wider)
        assert np.array_equal(a.scores, b.scores[:, :4])
        assert np.array_equal(a.positions, b.positions[:, :4])
        assert np.array_equal(a.gt_track, b.gt_track)
        assert np.all(b.scores[:, 4:] == 0.0)


# Malformed frame records: edits of one object of a record, and bad gt values.
BAD_OBJECT_EDITS = {
    "score 1.5": lambda obj: obj.__setitem__(0, 1.5),
    "score -0.1": lambda obj: obj.__setitem__(0, -0.1),
    "string score": lambda obj: obj.__setitem__(0, "0.5"),
    "nan appearance": lambda obj: obj[3].__setitem__(1, float("nan")),
    "inf motion": lambda obj: obj[4].__setitem__(0, float("inf")),
    "nan azimuth": lambda obj: obj.__setitem__(1, float("nan")),
    "null elevation": lambda obj: obj.__setitem__(2, None),
    "short appearance": lambda obj: obj[3].pop(),
    "long motion": lambda obj: obj[4].append(0.0),
    "four fields": lambda obj: obj.pop(),
}
BAD_GT = {
    "one angle": [1.0], "huge integer": [10**400, 0.0], "string": ["1", 0.0], "null": None,
    "nan": [float("nan"), 0.0],
}


class TestEpisodeFiles:
    def test_round_trip_identity(self, tmp_path):
        episodes = generate_dataset(SMALL, 42, 3)
        path = tmp_path / "episodes.jsonl"
        save_episodes(episodes, path)
        assert load_episodes(path) == episodes

    def test_empty_file_gives_empty_list(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_episodes(path) == []

    def test_truncated_final_line_names_the_line(self, tmp_path):
        path = tmp_path / "episodes.jsonl"
        save_episodes(generate_dataset(SMALL, 1, 1), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2] + "\n")
        with pytest.raises(ParseError) as err:
            load_episodes(path)
        assert err.value.line == len(lines)

    def test_missing_frames_reported(self, tmp_path):
        path = tmp_path / "episodes.jsonl"
        save_episodes(generate_dataset(SMALL, 1, 1), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:10]) + "\n")
        with pytest.raises(ParseError, match="end of file"):
            load_episodes(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "episodes.jsonl"
        save_episodes(generate_dataset(SMALL, 1, 1), path)
        text = path.read_text().replace('"format_version":1', '"format_version":99', 1)
        path.write_text(text)
        with pytest.raises(VersionError):
            load_episodes(path)

    @pytest.mark.parametrize(
        "field, value",
        [("t", -3), ("t", 1), ("t", 2.0), ("d", 0), ("k", "5"), ("n", True), ("n", None)],
    )
    def test_bad_header_value_is_a_parse_error(self, tmp_path, field, value):
        path = tmp_path / "episodes.jsonl"
        save_episodes(generate_dataset(SMALL, 1, 1), path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header[field] = value
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(ParseError, match=field) as err:
            load_episodes(path)
        assert err.value.line == 1

    def test_streaming_matches_bulk_load(self, tmp_path):
        episodes = generate_dataset(SMALL, 4, 2)
        path = tmp_path / "episodes.jsonl"
        save_episodes(episodes, path)
        streamed = []
        for header, frame_iter in stream_episodes(path):
            assert header["t"] == SMALL.frames
            streamed.append([rec for rec in frame_iter])
        assert len(streamed) == 2
        for ep, recs in zip(episodes, streamed):
            assert [f for f, _, _ in recs] == ep.frames
            assert [g for _, g, _ in recs] == ep.gt

    @pytest.mark.parametrize("edit", BAD_OBJECT_EDITS.values(), ids=BAD_OBJECT_EDITS)
    def test_bad_object_is_a_parse_error_naming_the_line(self, tmp_path, edit):
        path = tmp_path / "episodes.jsonl"
        save_episodes(generate_dataset(SMALL, 1, 1), path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[5])
        edit(rec["objects"][1])
        lines[5] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            load_episodes(path)
        assert err.value.line == 6

    @pytest.mark.parametrize("gt", BAD_GT.values(), ids=BAD_GT)
    def test_bad_gt_is_a_parse_error_naming_the_line(self, tmp_path, gt):
        path = tmp_path / "episodes.jsonl"
        save_episodes(generate_dataset(SMALL, 1, 1), path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[5])
        rec["gt"] = gt
        lines[5] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        for read in (load_episodes, lambda p: [list(f) for _, f in stream_episodes(p)]):
            with pytest.raises(ParseError) as err:
                read(path)
            assert err.value.line == 6

    def test_wrong_object_count_is_a_parse_error(self, tmp_path):
        path = tmp_path / "episodes.jsonl"
        save_episodes(generate_dataset(SMALL, 1, 1), path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[3])
        rec["objects"].pop()
        lines[3] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="expected 4 objects, found 3") as err:
            load_episodes(path)
        assert err.value.line == 4

    def test_loaded_positions_wrap_and_clamp(self, tmp_path):
        path = tmp_path / "episodes.jsonl"
        save_episodes(generate_dataset(SMALL, 1, 1), path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["objects"][0][1:3] = [370.0, 95.0]
        lines[1] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        frame = load_episodes(path)[0].frames[0]
        assert frame.positions[0].tolist() == [10.0, 90.0]
        block = SMALL.appearance_dim * SMALL.slots  # the flat vector encodes the wrapped angles
        assert frame.flat[block : block + 2].tolist() == [(10.0 - 180.0) / 180.0, 0.5]

    def test_episode_requires_matching_lengths(self):
        ep = generate_dataset(SMALL, 4, 1)[0]
        slots = (ep.appearance, ep.positions, ep.motions, ep.scores)
        with pytest.raises(InvalidInput):
            Episode(*(a[:-1] for a in slots), ep.gt_track)
        with pytest.raises(InvalidInput):
            Episode(*slots, ep.gt_track, ep.gt_object_index[:-1])
        with pytest.raises(InvalidInput):
            Episode(ep.appearance, ep.positions[:, :-1], *slots[2:], ep.gt_track)
        with pytest.raises(InvalidInput):
            Episode(*(a[:1] for a in slots), ep.gt_track[:1])

    @pytest.mark.parametrize("field", ["t", "d"])
    def test_header_too_large_to_allocate_reports_the_first_bad_frame(self, tmp_path, field):
        path = tmp_path / "episodes.jsonl"
        save_episodes(generate_dataset(SMALL, 1, 1), path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header[field] = 10**15 if field == "t" else 10**400  # no allocation this size succeeds
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(ParseError) as err:
            load_episodes(path)
        assert err.value.line == (len(lines) + 1 if field == "t" else 2)


class TestEpisodeLayout:
    """Each episode's data is stored once; the per-frame forms are views."""

    def test_appearance_and_motions_are_views_of_flat(self):
        ep = synth_scene(SMALL, 3)
        d, n = SMALL.appearance_dim, SMALL.slots
        assert ep.flat.shape == (SMALL.frames, (d + 2 + SMALL.motion_bins) * n)
        assert ep.appearance.base is ep.flat and ep.motions.base is ep.flat
        assert np.array_equal(ep.appearance.reshape(SMALL.frames, -1), ep.flat[:, : d * n])
        assert np.array_equal(ep.motions.reshape(SMALL.frames, -1), ep.flat[:, (d + 2) * n :])
        positions = ep.flat[:, d * n : (d + 2) * n].reshape(SMALL.frames, n, 2)
        assert np.array_equal(positions, (ep.positions - (180.0, 0.0)) / observation.ANGLE_SCALE)

    def test_episode_arrays_copies_nothing(self):
        ep = synth_scene(SMALL, 4)
        assert episode_arrays(ep) is ep

    def test_frames_and_gt_are_built_from_the_rows(self):
        ep = synth_scene(SMALL, 5)
        frames, gt = ep.frames, ep.gt
        assert len(frames) == len(gt) == len(ep) == SMALL.frames
        for t in (0, 17, SMALL.frames - 1):
            assert np.shares_memory(frames[t].flat, ep.flat)
            assert np.array_equal(frames[t].appearance, ep.appearance[t])
            assert frames[t].positions.tolist() == ep.positions[t].tolist()
            assert (gt[t].azimuth, gt[t].elevation) == tuple(ep.gt_track[t].tolist())

    def test_equality_is_array_equality(self):
        ep, same = synth_scene(SMALL, 6), synth_scene(SMALL, 6)
        assert (ep == same) is True
        same.scores[3, 0] += 1e-12
        assert (ep == same) is False
        relabelled = Episode(ep.appearance, ep.positions, ep.motions, ep.scores, ep.gt_track)
        assert (ep == relabelled) is False
        assert ep != "episode"


class TestGoldenDigests:
    """Digests of the reference-config generator output, fixed before slot
    arrays replaced the per-object records; the file and every array must
    stay bit-identical."""

    def test_episode_file_bytes(self, tmp_path):
        path = tmp_path / "episodes.jsonl"
        save_episodes(generate_dataset(SceneConfig(), 2026, 3), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "971efb889dc5e74974e521a530cb54054e128ccd3264cd68e50dc8cf476e325c"
        )

    def test_episode_arrays(self):
        digest = hashlib.sha256()
        for ep in generate_dataset(SceneConfig(), 2026, 3):
            arrays = episode_arrays(ep)
            for field in ("flat", "positions", "motions", "scores", "gt_track"):
                digest.update(np.ascontiguousarray(getattr(arrays, field)).tobytes())
            digest.update(np.asarray(ep.gt_object_index, dtype=np.int64).tobytes())
        assert digest.hexdigest() == (
            "f845d4177feba4dde104b14af1f2608ef27c2ab8c9510de747276934b8ce012e"
        )


# ---------------------------------------------------------------------------
# The generator's per-frame loops before they became Python-float loops and
# array code, kept as references: the rewrite must make the same rng draws
# and produce bit-identical arrays. ``hits`` counts the branches taken.
# ---------------------------------------------------------------------------


def _ref_center_path(config, rng, hits):
    t_total = config.frames
    pos = np.empty((t_total, 2))
    az = rng.uniform(0.0, 360.0)
    el = rng.uniform(-config.elevation_limit / 2.0, config.elevation_limit / 2.0)
    speed = rng.uniform(config.center_speed_min, config.center_speed_max)
    heading = rng.uniform(0.0, 360.0)
    remaining = 0
    for t in range(t_total):
        if remaining == 0:
            remaining = int(rng.integers(config.segment_min, config.segment_max + 1))
            if t > 0:
                heading += rng.uniform(-config.turn_limit, config.turn_limit)
                speed = rng.uniform(config.center_speed_min, config.center_speed_max)
        rad = np.deg2rad(heading)
        pos[t] = (az, el)
        az = wrap_azimuth(az + speed * np.cos(rad))
        el_next = el + speed * np.sin(rad)
        if abs(el_next) > config.elevation_limit:
            hits["center elevation"] += 1
            heading = -heading
            el_next = np.sign(el_next) * (2.0 * config.elevation_limit) - el_next
        el = clamp_elevation(el_next)
        remaining -= 1
    return pos


def _ref_offset_path(config, rng, hits):
    t_total, radius = config.frames, config.cluster_radius
    out = np.empty((t_total, 2))
    offset = rng.uniform(-radius / 2.0, radius / 2.0, size=2)
    speed = rng.uniform(config.speed_min, config.speed_max)
    heading = rng.uniform(0.0, 360.0)
    remaining = 0
    for t in range(t_total):
        if remaining == 0:
            remaining = int(rng.integers(config.segment_min, config.segment_max + 1))
            if t > 0:
                heading += rng.uniform(-config.turn_limit, config.turn_limit)
                speed = rng.uniform(config.speed_min, config.speed_max)
        rad = np.deg2rad(heading)
        out[t] = offset
        step = np.array([speed * np.cos(rad), speed * np.sin(rad)])
        nxt = offset + step
        reflected = 0
        for axis in (0, 1):
            if abs(nxt[axis]) > radius:
                reflected += 1
                hits[f"offset axis {axis}"] += 1
                nxt[axis] = np.sign(nxt[axis]) * (2.0 * radius) - nxt[axis]
                heading = (-heading if axis == 1 else 180.0 - heading) % 360.0
        hits["offset both axes"] += reflected == 2
        offset = nxt
        remaining -= 1
    return out


def _ref_object_paths(config, center, rng, hits):
    offsets = _ref_offset_path(config, rng, hits)
    pos = np.empty_like(offsets)
    pos[:, 0] = np.mod(center[:, 0] + offsets[:, 0], 360.0)
    pos[:, 0][pos[:, 0] == 360.0] = 0.0
    pos[:, 1] = np.clip(center[:, 1] + offsets[:, 1], -90.0, 90.0)
    vel = np.empty_like(pos)
    vel[1:, 0] = signed_azimuth_delta_array(np.diff(pos[:, 0]))
    vel[1:, 1] = np.diff(pos[:, 1])
    vel[0] = vel[1]
    return pos, vel


def _ref_smooth_track(pos, window):
    t_total = pos.shape[0]
    az = np.concatenate(
        [[pos[0, 0]], pos[0, 0] + np.cumsum(signed_azimuth_delta_array(np.diff(pos[:, 0])))]
    )
    el = pos[:, 1]
    half = window // 2
    out = np.empty_like(pos)
    for t in range(t_total):
        lo, hi = max(0, t - half), min(t_total, t + half + 1)
        out[t, 0] = wrap_azimuth(float(np.mean(az[lo:hi])))
        out[t, 1] = clamp_elevation(float(np.mean(el[lo:hi])))
    return out


REF_SEEDS = range(50)
# Scenes that reach every branch of the path and smoothing code.
REF_SCENES = {
    "small": SMALL,
    "center reflections": dataclasses.replace(SMALL, elevation_limit=5, center_speed_max=6),
    "offset reflections": dataclasses.replace(SMALL, cluster_radius=3),
    "window 16": dataclasses.replace(SMALL, gt_smooth_window=16),
    "window past the end": dataclasses.replace(SMALL, gt_smooth_window=101),
    "2 frames": dataclasses.replace(SMALL, frames=2),
    "3 frames": dataclasses.replace(SMALL, frames=3),
    # gradcheck.make_check_batch's scene at CHECK_DIMS
    "gradient check": SceneConfig(
        frames=10, objects=3, slots=4, appearance_dim=8, motion_bins=12, elevation_limit=40.0
    ),
}


class TestGeneratorMatchesPerFrameReference:
    @pytest.mark.parametrize("name", REF_SCENES)
    def test_paths(self, name):
        cfg, hits = REF_SCENES[name], Counter()
        for seed in REF_SEEDS:
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            center = _center_path(cfg, ours)
            assert np.array_equal(center, _ref_center_path(cfg, ref, hits))
            for _ in range(cfg.objects):
                assert np.array_equal(_offset_path(cfg, ours), _ref_offset_path(cfg, ref, hits))
            assert ours.bit_generator.state == ref.bit_generator.state  # the same draws

    def test_every_branch_is_reached(self):
        hits = Counter()
        for name in ("center reflections", "offset reflections"):
            cfg = REF_SCENES[name]
            for seed in REF_SEEDS:
                rng = np.random.default_rng(seed)
                _ref_center_path(cfg, rng, hits)
                _ref_offset_path(cfg, rng, hits)
        assert min(hits[key] for key in (
            "center elevation", "offset axis 0", "offset axis 1", "offset both axes"
        )) > 0
        # the reference scene's action center crosses the 0/360 seam
        center = _center_path(SceneConfig(), np.random.default_rng(0))
        assert np.abs(np.diff(center[:, 0])).max() > 180.0

    @pytest.mark.parametrize("window", [1, 2, 4, 5, 8, 9, 16, 41])
    @pytest.mark.parametrize("frames", [2, 3, 40])
    def test_smooth_track(self, window, frames):
        for seed in REF_SEEDS:
            rng = np.random.default_rng(seed)
            az = np.mod(355.0 + np.cumsum(rng.uniform(-6.0, 6.0, frames)), 360.0)
            pos = np.stack([az, rng.uniform(-95.0, 95.0, frames)], axis=-1)
            pos = land_angles(pos)  # az starts at 355: crosses 0/360
            assert np.array_equal(_smooth_track(pos, window), _ref_smooth_track(pos, window))

    @pytest.mark.parametrize("name", REF_SCENES)
    def test_whole_scene(self, name, monkeypatch):
        cfg = REF_SCENES[name]
        ours = [synth_scene(cfg, [seed, 1]) for seed in REF_SEEDS]
        hits = Counter()
        monkeypatch.setattr(observation, "_center_path", lambda c, r: _ref_center_path(c, r, hits))
        monkeypatch.setattr(
            observation, "_object_paths", lambda c, ctr, r: _ref_object_paths(c, ctr, r, hits)
        )
        monkeypatch.setattr(observation, "_smooth_track", _ref_smooth_track)
        for seed, ep in zip(REF_SEEDS, ours):
            ref = synth_scene(cfg, [seed, 1])
            a, b = episode_arrays(ep), episode_arrays(ref)
            for field in ("flat", "positions", "motions", "scores", "gt_track"):
                assert np.array_equal(getattr(a, field), getattr(b, field)), field
            assert ep.gt_object_index == ref.gt_object_index


# ---------------------------------------------------------------------------
# The episode reader before it read blocks of frames, kept as the reference:
# one json.loads, four _finite conversions, a ViewingAngle, land_angles and
# _pack_flat per frame. The block reader must accept and reject the same
# records, with the same error and line, and give bit-identical arrays.
# ---------------------------------------------------------------------------


def _ref_finite(values, shape):
    arr = np.array(values)
    if arr.shape != shape or arr.dtype.kind not in "biuf":
        raise ValueError(f"expected {shape} numbers, got shape {arr.shape} of {arr.dtype}")
    arr = arr.astype(np.float64)
    if not np.isfinite(arr).all():
        raise ValueError("non-finite value")
    return arr


def _ref_parse_frame(rec, header, lineno):
    n, d, k = header["n"], header["d"], header["k"]
    try:
        objects, main_idx = rec["objects"], rec.get("gt_object_index")
        gt = ViewingAngle(rec["gt"][0], rec["gt"][1])
        if len(objects) != n:
            raise ParseError(f"expected {n} objects, found {len(objects)}", line=lineno)
        if any(len(o) != 5 for o in objects):
            raise ValueError("objects are [score, azimuth, elevation, appearance, motion]")
        scores, azimuths, elevations, appearance, motions = zip(*objects)
        scores = _ref_finite(scores, (n,))
        if not np.all((scores >= 0.0) & (scores <= 1.0)):
            raise ValueError(f"scores must be in [0, 1], got {scores.tolist()}")
        angles = _ref_finite((azimuths, elevations), (2, n))
        appearance, motions = _ref_finite(appearance, (n, d)), _ref_finite(motions, (n, k))
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad frame record: {exc}", line=lineno) from exc
    return scores, angles, appearance, motions, gt, main_idx


def _ref_stream_episodes(path):
    """Yield (header, frames) per episode; frames yields (FrameObservation, gt, index)."""
    with open(path, "r", encoding="utf-8") as fh:
        lineno = 0
        while True:
            line = fh.readline()
            if not line:
                return
            lineno += 1
            if not line.strip():
                raise ParseError("unexpected blank line", line=lineno)
            header = observation._parse_header(observation._parse_json_line(line, lineno), lineno)

            def frames(header=header, start=lineno):
                nonlocal lineno
                for i in range(header["t"]):
                    row = fh.readline()
                    lineno = start + 1 + i
                    if not row:
                        raise ParseError("expected frame record, found end of file", line=lineno)
                    rec = observation._parse_json_line(row, lineno)
                    scores, angles, app, mot, gt, idx = _ref_parse_frame(rec, header, lineno)
                    pos = land_angles(angles.T)
                    yield FrameObservation(app, pos, mot, scores, _pack_flat(app, pos, mot)), gt, idx

            it = frames()
            yield header, it
            for _ in it:
                pass


def _ref_episodes(streamed):
    """The Episodes the reference loader built from a whole file's frames,
    given as :func:`_streamed` lists them."""
    episodes, start = [], 0
    while start < len(streamed):
        _, frames, gt, idxs = zip(*streamed[start : start + streamed[start][0]["t"]])
        slots = [np.stack([getattr(f, name) for f in frames]) for name in
                 ("appearance", "positions", "motions", "scores")]
        gt_track = np.array([(g.azimuth, g.elevation) for g in gt])
        episodes.append(Episode(*slots, gt_track, list(idxs) if None not in idxs else None))
        start += len(frames)
    return episodes


def _outcome(read, path):
    """What ``read(path)`` gives: ("ok", result) or ("error", type, message, line)."""
    try:
        return "ok", read(path)
    except ParseError as exc:
        return "error", type(exc), str(exc), exc.line


def _streamed(path, stream=stream_episodes):
    """Every frame ``stream`` yields, as (header, frame, gt, index), then the
    ParseError it ends with or None."""
    out = []
    try:
        for header, frames in stream(path):
            out.extend((header, *rec) for rec in frames)
    except ParseError as exc:
        return out, (type(exc), str(exc), exc.line)
    return out, None


BLOCK = observation._BLOCK_FRAMES
LONG = dataclasses.replace(SMALL, frames=2 * BLOCK + 22)  # three blocks, the last one short
EDIT_FRAMES = [0, BLOCK - 1, BLOCK, BLOCK + 1, LONG.frames - 1]  # block edges and the final frame

OBJECT_EDITS = {
    **BAD_OBJECT_EDITS,
    "six fields": lambda obj: obj.append(0.0),
    "integer 2**64 in appearance": lambda obj: obj[3].__setitem__(0, 2**64),
    "integer 2**64 across appearance": lambda obj: obj.__setitem__(3, [2**64] * len(obj[3])),
}
# An edit returning a string replaces the record's line with it.
RECORD_EDITS = {
    **{f"gt {name}": lambda rec, gt=gt: rec.__setitem__("gt", gt) for name, gt in BAD_GT.items()},
    "one object missing": lambda rec: rec["objects"].pop(),
    "objects missing": lambda rec: rec.pop("objects"),
    "not an object": lambda rec: "[1, 2]",
    "blank": lambda rec: "",
    "truncated": lambda rec: json.dumps(rec)[:40],
    "an integer of 5000 digits": lambda rec: json.dumps(rec).replace("[", "[" + "9" * 5000 + ", ", 1),
}


@pytest.fixture(scope="module")
def long_lines(tmp_path_factory):
    """The lines of an episode file holding two LONG episodes."""
    path = tmp_path_factory.mktemp("long") / "episodes.jsonl"
    save_episodes(generate_dataset(LONG, 8, 2), path)
    return path.read_text().splitlines()


def _edited_file(tmp_path, lines, frame, edit):
    """``lines`` with the first episode's record ``frame`` passed through
    ``edit``, written to a file; returns (path, edited line)."""
    path = tmp_path / "episodes.jsonl"
    lines = list(lines)
    rec = json.loads(lines[1 + frame])
    text = edit(rec)
    lines[1 + frame] = text if isinstance(text, str) else json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    return path, 2 + frame


def _assert_readers_agree(path):
    """Both readers stream the same frames and end with the same error (type,
    message and line), and load_episodes gives the reference's episodes or
    error; returns the block reader's load outcome and streamed frames."""
    streamed, ref_streamed = _streamed(path), _streamed(path, _ref_stream_episodes)
    assert streamed == ref_streamed
    loaded, (frames, end) = _outcome(load_episodes, path), ref_streamed
    assert loaded == (("error", *end) if end else ("ok", _ref_episodes(frames)))
    return loaded, streamed


class TestBlockReaderMatchesPerFrameReference:
    def test_valid_files(self, tmp_path):
        for scene, count in ((LONG, 2), (SceneConfig(), 3), (dataclasses.replace(SMALL, frames=2), 3)):
            path = tmp_path / "episodes.jsonl"
            episodes = generate_dataset(scene, 2026, count)
            save_episodes(episodes, path)
            (kind, loaded), _ = _assert_readers_agree(path)
            assert kind == "ok" and loaded == episodes

    @pytest.mark.parametrize("frame", EDIT_FRAMES)
    @pytest.mark.parametrize("name", OBJECT_EDITS)
    def test_bad_object(self, tmp_path, long_lines, name, frame):
        edit = OBJECT_EDITS[name]
        path, line = _edited_file(tmp_path, long_lines, frame, lambda rec: edit(rec["objects"][1]))
        (kind, *error), (streamed, end) = _assert_readers_agree(path)
        assert kind == "error" and error[2] == line and end == tuple(error)
        assert len(streamed) == frame  # exactly the frames before the bad one

    @pytest.mark.parametrize("frame", EDIT_FRAMES)
    @pytest.mark.parametrize("name", RECORD_EDITS)
    def test_bad_record(self, tmp_path, long_lines, name, frame):
        path, line = _edited_file(tmp_path, long_lines, frame, RECORD_EDITS[name])
        (kind, *error), (streamed, end) = _assert_readers_agree(path)
        assert kind == "error" and error[2] == line and end == tuple(error)
        assert len(streamed) == frame

    @pytest.mark.parametrize("frame", EDIT_FRAMES)
    def test_file_ending_before_the_frame(self, tmp_path, long_lines, frame):
        path = tmp_path / "episodes.jsonl"
        path.write_text("\n".join(long_lines[: 1 + frame]) + "\n")
        (kind, *error), (streamed, end) = _assert_readers_agree(path)
        assert kind == "error" and error[2] == 2 + frame and "end of file" in error[1]
        assert len(streamed) == frame

    @pytest.mark.parametrize(
        "edit",
        [
            lambda rec: rec["objects"][0].__setitem__(3, [1] * len(rec["objects"][0][3])),
            lambda rec: [obj.__setitem__(0, 1 if i == 0 else 0) for i, obj in enumerate(rec["objects"])],
            lambda rec: rec.__setitem__("gt", [2**64, -7]),
            lambda rec: rec.__setitem__("gt", [370, 95]),
            lambda rec: rec["objects"][2][4].__setitem__(0, 2**63),
            lambda rec: rec.__setitem__("note", "true or false"),
        ],
        ids=["integer appearance", "integer scores", "integer 2**64 gt", "integer gt out of range",
             "integer 2**63 motion", "string with true"],
    )
    @pytest.mark.parametrize("frame", [0, BLOCK + 1])
    def test_accepted_edits(self, tmp_path, long_lines, edit, frame):
        path, _ = _edited_file(tmp_path, long_lines, frame, edit)
        (kind, loaded), (streamed, end) = _assert_readers_agree(path)
        assert kind == "ok" and end is None and len(streamed) == 2 * LONG.frames

    def test_clamped_gt_and_positions(self, tmp_path, long_lines):
        def edit(rec):
            rec["gt"] = [-1e-300, -95.0]
            rec["objects"][0][1:3] = [720.5, 91.0]
        path, _ = _edited_file(tmp_path, long_lines, 5, edit)
        (_, (loaded, *_)), _ = _assert_readers_agree(path)
        assert loaded.gt_track[5].tolist() == [0.0, -90.0]
        assert loaded.positions[5, 0].tolist() == [0.5, 90.0]


class TestNewRecordRules:
    """Records the per-frame reference accepted and the block reader refuses."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda rec: [obj.__setitem__(0, True) for obj in rec["objects"]], "of bool"),
            (lambda rec: rec["objects"][1].__setitem__(0, True), "got a boolean"),
            (lambda rec: rec["objects"][1][3].__setitem__(2, False), "got a boolean"),
            (lambda rec: rec.__setitem__("gt", [True, 0.0]), "gt must be two numbers"),
            (lambda rec: rec.__setitem__("gt", [1.0, 2.0, 3.0]), "gt must be two numbers"),
            (lambda rec: rec.__setitem__("gt_object_index", "abc"), "must be an integer in"),
            (lambda rec: rec.__setitem__("gt_object_index", 99), "must be an integer in"),
            (lambda rec: rec.__setitem__("gt_object_index", -1), "must be an integer in"),
            (lambda rec: rec.__setitem__("gt_object_index", True), "must be an integer in"),
            (lambda rec: rec.__setitem__("gt_object_index", 1.0), "must be an integer in"),
            (lambda rec: rec.pop("gt_object_index"), "on every frame of an episode or on none"),
        ],
        ids=["true scores", "true score", "false appearance", "true gt", "three gt", "string index",
             "index 99", "index -1", "true index", "float index", "index missing"],
    )
    @pytest.mark.parametrize("frame", [1, BLOCK - 1, BLOCK + 1, LONG.frames - 1])
    def test_refused_with_the_line(self, tmp_path, long_lines, edit, message, frame):
        path, line = _edited_file(tmp_path, long_lines, frame, edit)
        edited = path.read_text().splitlines()[line - 1]
        _ref_parse_frame(json.loads(edited), json.loads(long_lines[0]), line)  # the reference accepts it
        with pytest.raises(ParseError, match=message) as err:
            load_episodes(path)
        assert err.value.line == line
        streamed, end = _streamed(path)
        assert end == (ParseError, str(err.value), line) and len(streamed) == frame

    def test_index_present_only_after_the_first_frame(self, tmp_path):
        path = tmp_path / "episodes.jsonl"
        save_episodes(generate_dataset(LONG, 3, 1), path)
        lines = path.read_text().splitlines()
        recs = [json.loads(line) for line in lines[1:]]
        for rec in recs:
            rec.pop("gt_object_index")
        recs[BLOCK + 3]["gt_object_index"] = 0
        path.write_text("\n".join(lines[:1] + [json.dumps(rec) for rec in recs]) + "\n")
        with pytest.raises(ParseError, match="on every frame") as err:
            load_episodes(path)
        assert err.value.line == BLOCK + 5
        recs[BLOCK + 3].pop("gt_object_index")
        path.write_text("\n".join(lines[:1] + [json.dumps(rec) for rec in recs]) + "\n")
        assert load_episodes(path)[0].gt_object_index is None

    def test_first_frame_index_must_be_valid(self, tmp_path, long_lines):
        path, line = _edited_file(tmp_path, long_lines, 0, lambda rec: rec.update(gt_object_index=4))
        with pytest.raises(ParseError, match=r"in \[0, 4\), got 4") as err:
            load_episodes(path)
        assert err.value.line == line == 2


def _bits(value):
    """A reader's result with every float array and angle as bytes, so that
    equal means bit for bit (-0.0 is not 0.0)."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, ViewingAngle):
        return _bits(np.array([value.azimuth, value.elevation]))
    if isinstance(value, (FrameObservation, Episode)):
        return _bits(list(vars(value).values()))
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    return value


def _set(path, value):
    """An edit setting rec[path[0]]...[path[-1]] to ``value``."""
    def edit(rec):
        for key in path[:-1]:
            rec = rec[key]
        rec[path[-1]] = value
    return edit


# name: (edit, whether the block path reads the edited block itself rather
# than leaving it to the per-record parse)
PARITY_EDITS = {
    "string score": (_set(("objects", 1, 0), "0.5"), False),
    "string appearance": (_set(("objects", 1, 3, 0), "1.5"), False),
    "string gt": (_set(("gt", 1), "1.5"), False),
    "integer appearance among floats": (_set(("objects", 1, 3, 0), 3), True),
    "integer angles": (lambda rec: rec["objects"][2].__setitem__(slice(1, 3), [-725, 89]), True),
    "integer 2**62 motion": (_set(("objects", 1, 4, 2), 2**62), True),
    "integer 2**63 - 1 motion": (_set(("objects", 1, 4, 2), 2**63 - 1), False),
    "integer 2**64 appearance": (_set(("objects", 1, 3, 0), 2**64), False),
    "integer -2**63 - 1 appearance": (_set(("objects", 1, 3, 0), -(2**63) - 1), False),
    "integer 2**70 gt": (_set(("gt", 0), 2**70), False),
    "integer of 400 digits azimuth": (_set(("objects", 0, 1), 10**400), False),
    "null score": (_set(("objects", 1, 0), None), False),
    "null motion": (_set(("objects", 1, 4, 1), None), False),
    "null gt": (_set(("gt", 1), None), False),
    "null index": (_set(("gt_object_index",), None), False),
    "NaN appearance": (_set(("objects", 1, 3, 2), float("nan")), False),
    "NaN gt": (_set(("gt", 0), float("nan")), False),
    "Infinity score": (_set(("objects", 1, 0), float("inf")), False),
    "-Infinity elevation": (_set(("objects", 1, 2), -float("inf")), False),
    "extra key with u and f": (_set(("fu",), 1.0), False),
    "extra key without": (_set(("extra",), [1.5, "x"]), True),
    "reordered keys": (lambda rec: "{" + ", ".join(
        f"{json.dumps(key)}: {json.dumps(rec[key])}" for key in reversed(rec)) + "}", True),
}


class TestBlockPathMatchesPerRecordPath:
    """load_episodes and stream_episodes give the same arrays, or the same
    ParseError text and line, whether a block is read as one or every
    record goes through _parse_frame."""

    @pytest.mark.parametrize("frame", [0, BLOCK + 1, LONG.frames - 1])
    @pytest.mark.parametrize("name", PARITY_EDITS)
    def test_edited_record(self, tmp_path, long_lines, monkeypatch, name, frame):
        edit, block_reads = PARITY_EDITS[name]
        path, _ = _edited_file(tmp_path, long_lines, frame, edit)
        lines = path.read_text().splitlines(keepends=True)
        first = 1 + frame // BLOCK * BLOCK
        texts = lines[first : min(first + BLOCK, 1 + LONG.frames)]
        header = json.loads(lines[0])
        read = observation._read_block(texts, header, None if first == 1 else True)
        assert (read is not None) == block_reads
        blocks = _bits(_streamed(path)), _bits(_outcome(load_episodes, path))
        monkeypatch.setattr(observation, "_read_block", lambda texts, header, has_idx: None)
        assert blocks == (_bits(_streamed(path)), _bits(_outcome(load_episodes, path)))

    def test_valid_file(self, tmp_path, monkeypatch):
        path = tmp_path / "episodes.jsonl"
        save_episodes(generate_dataset(LONG, 11, 2), path)
        blocks = _bits(_streamed(path)), _bits(_outcome(load_episodes, path))
        monkeypatch.setattr(observation, "_read_block", lambda texts, header, has_idx: None)
        assert blocks == (_bits(_streamed(path)), _bits(_outcome(load_episodes, path)))


def test_streamed_frames_are_views_of_one_block(tmp_path):
    path = tmp_path / "episodes.jsonl"
    scene = dataclasses.replace(SMALL, frames=1000)
    save_episodes(generate_dataset(scene, 5, 1), path)
    ((_, frames),) = [(h, list(f)) for h, f in stream_episodes(path)]
    bases = set()
    for frame, _, _ in frames:
        for name in ("appearance", "positions", "motions", "scores", "flat"):
            base = getattr(frame, name).base
            assert base is not None and base.shape[0] <= BLOCK, name
            bases.add(id(base))
    # one base per field per block: the frames share ceil(1000 / BLOCK) blocks
    assert len(bases) <= 5 * -(-scene.frames // BLOCK)
    assert [f for f, _, _ in frames] == load_episodes(path)[0].frames
