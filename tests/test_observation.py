"""Tests for frame packing, the synthetic scene generator, and episode files."""

import dataclasses
import json

import numpy as np
import pytest

from viewpilot.errors import InvalidInput, ParseError, VersionError
from viewpilot.geometry import ViewingAngle, angular_distance
from viewpilot.observation import (
    Episode,
    ObjectObservation,
    SceneConfig,
    episode_arrays,
    generate_dataset,
    load_episodes,
    make_frame_observation,
    save_episodes,
    stream_episodes,
    synth_scene,
)


def _obj(score, az=0.0, el=0.0, d=4, k=3, seed=0):
    rng = np.random.default_rng(seed)
    return ObjectObservation(rng.normal(size=d), ViewingAngle(az, el), rng.normal(size=k), score)


class TestMakeFrameObservation:
    def test_sorted_by_score_descending(self):
        objs = [_obj(0.9, az=1, seed=1), _obj(0.5, az=2, seed=2), _obj(0.7, az=3, seed=3)]
        frame = make_frame_observation(objs, 3)
        assert [o.score for o in frame.objects] == [0.9, 0.7, 0.5]

    def test_padding_with_zero_objects(self):
        frame = make_frame_observation([_obj(0.4)], 4)
        assert frame.objects[0].score == 0.4
        for slot in frame.objects[1:]:
            assert slot.score == 0.0
            assert slot.position == ViewingAngle(0, 0)
            assert not slot.appearance.any() and not slot.motion.any()

    def test_order_invariance(self):
        objs = [_obj(0.9, az=1, seed=1), _obj(0.5, az=2, seed=2), _obj(0.7, az=3, seed=3)]
        base = make_frame_observation(objs, 4)
        for perm in ([2, 0, 1], [1, 2, 0], [2, 1, 0]):
            other = make_frame_observation([objs[i] for i in perm], 4)
            assert np.array_equal(base.flat, other.flat)

    def test_score_ties_broken_by_position(self):
        objs = [_obj(0.5, az=30, seed=1), _obj(0.5, az=10, seed=2), _obj(0.5, az=20, seed=3)]
        frame = make_frame_observation(objs, 3)
        assert [o.position.azimuth for o in frame.objects] == [10, 20, 30]

    def test_flat_layout_and_length(self):
        d, k, n = 4, 3, 5
        objs = [_obj(0.8, az=15, el=-4, d=d, k=k, seed=9)]
        frame = make_frame_observation(objs, n)
        assert frame.flat.shape == ((d + 2 + k) * n,)
        # appearance block, then position block (half-turn units), then motion block
        assert np.array_equal(frame.flat[:d], objs[0].appearance)
        assert frame.flat[d * n] == (objs[0].position.azimuth - 180.0) / 180.0
        assert frame.flat[d * n + 1] == objs[0].position.elevation / 180.0
        assert np.array_equal(frame.flat[(d + 2) * n : (d + 2) * n + k], objs[0].motion)

    def test_dimension_mismatch_rejected(self):
        objs = [_obj(0.5, d=4), _obj(0.6, d=5)]
        with pytest.raises(InvalidInput):
            make_frame_observation(objs, 4)

    def test_truncates_to_top_n(self):
        objs = [_obj(s, az=i, seed=i) for i, s in enumerate([0.1, 0.9, 0.5, 0.7])]
        frame = make_frame_observation(objs, 2)
        assert [o.score for o in frame.objects] == [0.9, 0.7]


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
        for a, b in zip(ep.gt, ep.gt[1:]):
            assert angular_distance(a, b) <= SMALL.speed_bound + slack

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
        assert np.array_equal(a.gt, b.gt)
        assert np.all(b.scores[:, 4:] == 0.0)


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

    def test_episode_requires_matching_lengths(self):
        ep = generate_dataset(SMALL, 4, 1)[0]
        with pytest.raises(InvalidInput):
            Episode(ep.frames[:-1], ep.gt)
