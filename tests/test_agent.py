"""Tests for the composed online pilot."""

import dataclasses
import json

import numpy as np
import pytest

from viewpilot.agent import (
    AgentState,
    ModelDims,
    PilotModel,
    initial_state,
    load_model_checkpoint,
    pilot_episode,
    pilot_step,
    read_trajectories,
    save_model_checkpoint,
    write_trajectory,
)
from viewpilot.errors import ConfigError, InvalidInput, ParseError
from viewpilot.geometry import ViewingAngle
from viewpilot.observation import Episode, SceneConfig, synth_scene
from viewpilot.training import TrainConfig

DIMS = ModelDims(appearance_dim=6, motion_bins=5, slots=4, selector_hidden=8, regressor_hidden=4)
SCENE = SceneConfig(frames=30, objects=3, slots=4, appearance_dim=6, motion_bins=5)


def _model(seed=0):
    return PilotModel(DIMS, np.random.default_rng(seed))


def _episode(seed=0):
    return synth_scene(SCENE, seed)


class TestPilotStep:
    def test_zero_weights_hold_position(self):
        model = _model()
        for p in model.params():
            p.values[...] = 0.0
        ep = _episode()
        state = initial_state(model, ViewingAngle(123, 7))
        for frame in ep.frames:
            angle, _, state = pilot_step(frame, state, model)
            assert angle == ViewingAngle(123, 7)

    def test_deterministic(self):
        model = _model(1)
        ep = _episode(1)
        state = initial_state(model, ep.gt[0])
        out1 = pilot_step(ep.frames[0], state, model)
        out2 = pilot_step(ep.frames[0], state, model)
        assert out1[0] == out2[0] and out1[1] == out2[1]

    def test_dimension_mismatch_rejected(self):
        other = synth_scene(dataclasses.replace(SCENE, slots=5), 0)
        model = _model()
        with pytest.raises(InvalidInput):
            pilot_step(other.frames[0], initial_state(model, ViewingAngle(0, 0)), model)

    def test_causality_under_future_mutation(self):
        # outputs through frame t are unchanged no matter what later frames hold
        model = _model(2)
        ep = _episode(2)
        cut = 13
        full, _ = pilot_episode(ep, model)
        order = list(range(cut)) + list(reversed(range(cut, len(ep))))
        mutated = Episode(
            ep.appearance[order], ep.positions[order], ep.motions[order], ep.scores[order],
            ep.gt_track[order],
        )
        assert mutated.frames[cut:] != ep.frames[cut:]
        partial, _ = pilot_episode(mutated, model, init=ep.gt[0])
        assert full[:cut] == partial[:cut]


class TestPilotEpisode:
    def test_trajectory_covers_every_frame(self):
        model = _model(3)
        ep = _episode(3)
        traj, picks = pilot_episode(ep, model)
        assert len(traj) == len(ep) and len(picks) == len(ep)
        for angle in traj:
            assert 0 <= angle.azimuth < 360 and -90 <= angle.elevation <= 90
        assert all(0 <= i < DIMS.slots for i in picks)

    def test_default_init_is_first_gt(self):
        model = _model(4)
        for p in model.params():
            p.values[...] = 0.0
        ep = _episode(4)
        traj, _ = pilot_episode(ep, model)
        assert all(a == ep.gt[0] for a in traj)

    def test_streaming_equals_batch(self):
        model = _model(6)
        ep = _episode(6)
        traj, picks = pilot_episode(ep, model)
        state = initial_state(model, ep.gt[0])
        for t, frame in enumerate(ep.frames):
            angle, idx, state = pilot_step(frame, state, model)
            assert angle == traj[t] and idx == picks[t]


class TestCheckpointGlue:
    def test_round_trip_preserves_behavior(self, tmp_path):
        model = _model(7)
        ep = _episode(7)
        path = tmp_path / "model.json"
        save_model_checkpoint(path, model, 3, TrainConfig().schedule(), {"seed": 0})
        loaded, ckpt = load_model_checkpoint(path, expect_dims=DIMS)
        assert ckpt.epoch == 3
        assert pilot_episode(ep, loaded)[0] == pilot_episode(ep, model)[0]

    def test_dims_mismatch_rejected(self, tmp_path):
        model = _model(8)
        path = tmp_path / "model.json"
        save_model_checkpoint(path, model, 0, TrainConfig().schedule(), {})
        with pytest.raises(ConfigError):
            load_model_checkpoint(path, expect_dims=dataclasses.replace(DIMS, slots=9))


HEADER = '{"checkpoint":"abc","episode":0}'


def _record(frame="0", azimuth="1.0", elevation="2.0", selected="0") -> str:
    """A trajectory frame record line with the given JSON values."""
    return (
        f'{{"frame":{frame},"azimuth":{azimuth},"elevation":{elevation},"selected":{selected}}}'
    )


class TestTrajectoryFiles:
    def test_round_trip(self, tmp_path):
        model = _model(9)
        ep = _episode(9)
        traj, picks = pilot_episode(ep, model)
        path = tmp_path / "traj.jsonl"
        write_trajectory(path, zip(range(len(traj)), traj, picks), "abc123")
        loaded = read_trajectories(path)
        assert len(loaded) == 1
        header, angles, selections = loaded[0]
        assert header["checkpoint"] == "abc123"
        assert angles == traj and selections == picks

    def test_frame_records_are_the_json_dumps_bytes(self, tmp_path):
        rng = np.random.default_rng(3)
        raw = [*zip(rng.uniform(-400, 400, 5000).tolist(), rng.uniform(-100, 100, 5000).tolist()),
               (0.0, 0.0), (359.99999999999994, 90.0), (-0.0, -0.0), (1e-300, -90.0), (5e-324, 1e-300)]
        angles = [ViewingAngle(az, el) for az, el in raw]
        picks = rng.integers(0, 1000, len(angles)).tolist()
        path = tmp_path / "traj.jsonl"
        write_trajectory(path, zip(range(len(angles)), angles, picks), "abc123")
        records = [
            {"frame": t, "azimuth": a.azimuth, "elevation": a.elevation, "selected": picks[t]}
            for t, a in enumerate(angles)
        ]
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[1:] == [json.dumps(rec, separators=(",", ":")) + "\n" for rec in records]
        assert lines[-3] == '{"frame":5002,"azimuth":0.0,"elevation":-0.0,"selected":%d}\n' % picks[-3]

    @pytest.mark.parametrize(
        "lines, bad_line",
        [
            ([_record()], 1),
            ([HEADER, '{"frame":0,"azimuth":1.0'], 2),
            ([HEADER, '{"frame":0,"azimuth":1.0,"selected":0}'], 2),
            ([HEADER, _record(selected='"x"')], 2),
            ([HEADER, _record(selected="-1")], 2),
            ([HEADER, _record(selected="1.0")], 2),
            ([HEADER, _record(selected="true")], 2),
            ([HEADER, _record(frame="1")], 2),
            ([HEADER, _record(), _record(frame="2")], 3),
            ([HEADER, _record(), _record()], 3),
            ([HEADER, _record(frame="0.0")], 2),
            ([HEADER, _record(frame="false")], 2),
            ([HEADER, _record(), HEADER, _record(frame="1")], 4),
            ([HEADER, _record(azimuth="true")], 2),
            ([HEADER, _record(elevation="false")], 2),
            ([HEADER, _record()[:-1] + ',"note":true}'], 2),
            ([HEADER, _record(azimuth="NaN")], 2),
        ],
        ids=[
            "no header", "truncated record", "missing field", "selected string",
            "selected negative", "selected float", "selected boolean", "frame not from zero",
            "frame skips", "frame repeats", "frame float", "frame boolean",
            "frame not restarted", "azimuth boolean", "elevation boolean", "extra boolean",
            "non-finite angle",
        ],
    )
    def test_malformed_file_is_a_parse_error_naming_the_line(self, tmp_path, lines, bad_line):
        path = tmp_path / "traj.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            read_trajectories(path)
        assert err.value.line == bad_line

    def test_string_selection_then_boolean_record_is_refused(self, tmp_path):
        path = tmp_path / "traj.jsonl"
        lines = [
            HEADER,
            _record(frame="7", selected='"x"'),
            _record(frame="true", azimuth="true", selected="99"),
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            read_trajectories(path)
        assert err.value.line == 2

    def test_frames_count_from_zero_in_each_episode(self, tmp_path):
        path = tmp_path / "traj.jsonl"
        lines = [HEADER, _record(), _record(frame="1", selected="3"), HEADER, _record()]
        path.write_text("\n".join(lines) + "\n")
        loaded = read_trajectories(path)
        assert [sel for _, _, sel in loaded] == [[0, 3], [0]]
        assert loaded[0][1] == [ViewingAngle(1.0, 2.0)] * 2
