"""Tests for the composed online pilot."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from viewpilot.agent import (
    AgentState,
    ModelDims,
    PilotModel,
    initial_state,
    load_model_checkpoint,
    params_digest,
    pilot_episode,
    pilot_step,
    read_trajectories,
    save_model_checkpoint,
    write_trajectory,
)
from viewpilot.cli import EXIT_IO, main
from viewpilot.errors import ConfigError, InvalidInput, NumericsError, ParseError, VersionError
from viewpilot.geometry import Trajectory, ViewingAngle
from viewpilot.observation import Episode, SceneConfig, save_episodes, synth_scene
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

    @pytest.mark.parametrize("edit", ["in place", "rebound"])
    def test_steps_after_a_weight_edit_equal_a_fresh_model(self, edit):
        """``RegressorNetwork.steer`` reads the weights at each call, so an
        in-place update or a rebound ``ParamTensor.values`` (as the gradient
        check probes) shows in the next step."""
        model, ep = _model(1), _episode(1)
        state = initial_state(model, ep.gt[0])
        first = pilot_step(ep.frames[0], state, model)
        rng = np.random.default_rng(2)
        for p in model.regressor.params():
            if edit == "in place":
                p.values += rng.normal(size=p.shape)
            else:
                p.values = p.values + rng.normal(size=p.shape)
        fresh = _model(1)
        for mine, theirs in zip(model.params(), fresh.params()):
            theirs.values[...] = mine.values
        got = pilot_step(ep.frames[0], state, model)
        want = pilot_step(ep.frames[0], initial_state(fresh, ep.gt[0]), fresh)
        assert got[0] != first[0]
        assert (got[0], got[1]) == (want[0], want[1])
        assert got[2].regressor_mu.tolist() == want[2].regressor_mu.tolist()

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
        assert mutated.frames[cut:] != ep.frames[cut:] and mutated.gt[0] == ep.gt[0]
        partial, _ = pilot_episode(mutated, model)
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
        greedy = np.argmax(model.selector.unroll(ep.flat[None])[1][0], axis=-1)
        assert type(traj) is Trajectory and picks.tolist() == greedy.tolist()


class TestCheckpoints:
    @staticmethod
    def _saved(path, seed=0, epoch=0) -> PilotModel:
        model = _model(seed)
        save_model_checkpoint(path, model, epoch, TrainConfig().schedule(), {"seed": seed})
        return model

    def test_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "ckpt.json"
        model = self._saved(path, seed=1, epoch=7)
        loaded, ckpt = load_model_checkpoint(path)
        assert (ckpt.epoch, ckpt.rng_record) == (7, {"seed": 1})
        assert ckpt.schedule == TrainConfig().schedule()
        assert ckpt.digest == loaded.digest() == model.digest()
        for p, q in zip(model.params(), loaded.params()):
            assert p.name == q.name
            np.testing.assert_array_equal(q.values, p.values)
        save_model_checkpoint(tmp_path / "again.json", loaded, 7, ckpt.schedule, ckpt.rng_record)
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_round_trip_preserves_behavior(self, tmp_path):
        model = _model(7)
        ep = _episode(7)
        path = tmp_path / "model.json"
        save_model_checkpoint(path, model, 3, TrainConfig().schedule(), {"seed": 0})
        loaded, ckpt = load_model_checkpoint(path, expect_dims=DIMS)
        assert ckpt.epoch == 3
        assert pilot_episode(ep, loaded)[0] == pilot_episode(ep, model)[0]

    def test_dims_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        self._saved(path, seed=8)
        load_model_checkpoint(path, expect_dims=DIMS)
        with pytest.raises(ConfigError):
            load_model_checkpoint(path, expect_dims=dataclasses.replace(DIMS, slots=9))

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        self._saved(path)
        doc = path.read_text().replace('"format_version": 1', '"format_version": 9', 1)
        path.write_text(doc)
        with pytest.raises(VersionError):
            load_model_checkpoint(path)

    def test_truncated_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "ckpt.json"
        self._saved(path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ParseError):
            load_model_checkpoint(path)

    @pytest.mark.parametrize("key", ["arch", "epoch", "lr_schedule", "rng", "params", "digest"])
    def test_missing_key_is_a_parse_error(self, tmp_path, key):
        path = tmp_path / "ckpt.json"
        self._saved(path)
        doc = json.loads(path.read_text())
        del doc[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=key):
            load_model_checkpoint(path)

    @pytest.mark.parametrize("key, value", [("initial", True), ("period", 2.5)])
    def test_a_schedule_field_of_the_wrong_type_is_a_parse_error(self, tmp_path, key, value):
        path = tmp_path / "ckpt.json"
        self._saved(path)
        doc = json.loads(path.read_text())
        doc["lr_schedule"][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=f"learning-rate schedule {key} must be"):
            load_model_checkpoint(path)

    def test_an_rng_record_that_is_not_an_object_is_a_parse_error(self, tmp_path):
        path = tmp_path / "ckpt.json"
        self._saved(path)
        doc = json.loads(path.read_text())
        doc["rng"] = [7]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="has rng \\[7\\], not an object"):
            load_model_checkpoint(path)

    def test_digest_mismatch_is_a_parse_error(self, tmp_path):
        path = tmp_path / "ckpt.json"
        self._saved(path)
        doc = json.loads(path.read_text())
        doc["params"]["regressor.cell.b"]["values"][0] += 1e-12
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="digest"):
            load_model_checkpoint(path)

    def test_a_non_finite_value_is_a_numerics_error(self, tmp_path):
        path = tmp_path / "ckpt.json"
        self._saved(path)
        doc = json.loads(path.read_text())
        doc["params"]["selector.head.w"]["values"][0] = float("nan")
        path.write_text(json.dumps(doc))
        with pytest.raises(NumericsError, match="selector.head.w"):
            load_model_checkpoint(path)

    @pytest.mark.parametrize("value", ["0.0", True], ids=["string", "boolean"])
    def test_a_value_that_is_not_a_number_is_a_parse_error(self, tmp_path, value):
        """np.array would read "0.0" as 0.0 and true as 1.0; the digest is
        recomputed for those readings, so it is not what refuses the file."""
        path = tmp_path / "ckpt.json"
        self._saved(path)
        doc = json.loads(path.read_text())
        doc["params"]["regressor.cell.b"]["values"][0] = value
        values = {
            k: np.array(v["values"], dtype=np.float64).reshape(v["shape"])
            for k, v in doc["params"].items()
        }
        doc["digest"] = params_digest(values)
        path.write_text(json.dumps(doc))
        message = "parameter regressor.cell.b holds a value that is not a number"
        with pytest.raises(ParseError, match=message):
            load_model_checkpoint(path)
        out, data = tmp_path / "out.jsonl", tmp_path / "episodes.jsonl"
        save_episodes([_episode()], data)
        code = main(["pilot", "--checkpoint", str(path), "--data", str(data), "--out", str(out)])
        assert code == EXIT_IO

    @pytest.mark.parametrize("rename", [False, True])
    def test_foreign_parameter_names_or_shapes_are_a_config_error(self, tmp_path, rename):
        path = tmp_path / "ckpt.json"
        self._saved(path)
        doc = json.loads(path.read_text())
        rec = doc["params"].pop("regressor.head.w")
        if rename:
            doc["params"]["regressor.head.v"] = rec
        else:
            doc["params"]["regressor.head.w"] = {"shape": [rec["shape"][1], rec["shape"][0]],
                                                 "values": rec["values"]}
        values = {k: np.array(v["values"]).reshape(v["shape"]) for k, v in doc["params"].items()}
        doc["digest"] = params_digest(values)
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="regressor.head"):
            load_model_checkpoint(path)

    def test_cli_exits_3_on_a_truncated_checkpoint(self, tmp_path, capsys):
        path = tmp_path / "ckpt.json"
        self._saved(path)
        path.write_text(path.read_text()[:40])
        out = tmp_path / "out.jsonl"
        code = main(["pilot", "--checkpoint", str(path), "--data", str(path), "--out", str(out)])
        assert code == EXIT_IO
        assert "Traceback" not in capsys.readouterr().err

    def test_a_failed_write_leaves_the_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "ckpt.json"
        self._saved(path)
        before = path.read_bytes()

        def crash(doc, fh):
            fh.write('{"format_version": 1, "arch": {}, "ep')
            raise OSError("no space left on device")

        monkeypatch.setattr(json, "dump", crash)
        with pytest.raises(OSError):
            self._saved(path, seed=1, epoch=1)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]

    def test_the_file_format_is_pinned(self, tmp_path):
        # bytes written at the reference dims by the format's first version
        path = tmp_path / "ckpt.json"
        model = PilotModel(ModelDims(16, 12, 8, 32, 8), np.random.default_rng([7, 0]))
        save_model_checkpoint(path, model, 3, TrainConfig().schedule(), {"seed": 7})
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "a5d21d3d08dd1c715f825061f06b7ae045cfba9614726e5eb9a9d4c8b277d179"
        )
        assert load_model_checkpoint(path)[1].digest == model.digest() == "215e828c739b"

    def test_the_benchmarks_save_and_load_calls(self, tmp_path):
        # perfbench/workloads.py setup_eval, call for call
        dims, schedule, model_seed = ModelDims(16, 12, 8, 32, 8), TrainConfig().schedule(), 11
        initial = PilotModel(dims, np.random.default_rng([model_seed, 0]))
        checkpoint = tmp_path / "model.json"
        save_model_checkpoint(checkpoint, initial, 0, schedule, {"seed": model_seed})
        model, ckpt = load_model_checkpoint(checkpoint, expect_dims=dims)
        assert ckpt.digest == model.digest() == initial.digest()
        for p, q in zip(initial.params(), model.params()):
            np.testing.assert_array_equal(q.values, p.values)


HEADER = '{"checkpoint":"abc","episode":0}'
SECOND_HEADER = '{"checkpoint":"abc","episode":1}'


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
        assert header == {"checkpoint": "abc123", "episode": 0}
        assert type(angles) is Trajectory and angles == traj and selections == picks.tolist()

    def test_reads_back_the_pilot_step_angles(self, tmp_path):
        # the comparison of the benchmark's eval workload: a list of read
        # Trajectories equals the lists of online pilot_step angles
        model, path = _model(9), tmp_path / "traj.jsonl"
        online = []
        with open(path, "w", encoding="utf-8") as fh:
            for index, ep in enumerate([_episode(9), _episode(10)]):
                state, records = initial_state(model, ep.gt[0]), []
                for t, frame in enumerate(ep.frames):
                    angle, selected, state = pilot_step(frame, state, model)
                    records.append((t, angle, selected))
                write_trajectory(None, records, "abc", episode_index=index, fh=fh)
                online.append([angle for _, angle, _ in records])
        streamed = [angles for _, angles, _ in read_trajectories(path)]
        assert all(type(angles) is Trajectory for angles in streamed)
        assert streamed == online and online == streamed
        assert [a.array.tolist() for a in streamed] == [
            [[v.azimuth, v.elevation] for v in angles] for angles in online
        ]

    def test_an_episode_without_frames_reads_as_an_empty_trajectory(self, tmp_path):
        path = tmp_path / "traj.jsonl"
        path.write_text("\n".join([HEADER, SECOND_HEADER, _record()]) + "\n")
        (_, empty, none), (_, one, sel) = read_trajectories(path)
        assert type(empty) is Trajectory and empty.array.shape == (0, 2) and none == []
        assert one == [ViewingAngle(1.0, 2.0)] and sel == [0]

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
            ([HEADER, _record(), SECOND_HEADER, _record(frame="1")], 4),
            ([HEADER, _record(azimuth="true")], 2),
            ([HEADER, _record(elevation="false")], 2),
            ([HEADER, _record()[:-1] + ',"note":true}'], 2),
            ([HEADER, _record(azimuth="NaN")], 2),
            ([HEADER, _record(elevation='"2.0"')], 2),
            ([HEADER, _record(azimuth="1" + "0" * 400)], 2),
            (['{"checkpoint": true, "episode": "zero", "frame": 3}', _record()], 1),
            (['{"checkpoint": "abc"}', _record()], 1),
            (['{"checkpoint": "abc", "episode": 0, "frame": 0}'], 1),
            (['{"checkpoint": 7, "episode": 0}'], 1),
            (['{"checkpoint": "abc", "episode": false}'], 1),
            (['{"checkpoint": "abc", "episode": 0.0}'], 1),
            ([SECOND_HEADER], 1),
            ([HEADER, _record(), HEADER], 3),
            ([HEADER, '{"checkpoint":"abc","episode":2}'], 2),
        ],
        ids=[
            "no header", "truncated record", "missing field", "selected string",
            "selected negative", "selected float", "selected boolean", "frame not from zero",
            "frame skips", "frame repeats", "frame float", "frame boolean",
            "frame not restarted", "azimuth boolean", "elevation boolean", "extra boolean",
            "non-finite angle", "angle string", "angle past the float range",
            "header with other types and keys", "header without episode", "header with a frame",
            "checkpoint not a string", "episode boolean", "episode float",
            "episode not from zero", "episode repeats", "episode skips",
        ],
    )
    def test_malformed_file_is_a_parse_error_naming_the_line(self, tmp_path, lines, bad_line):
        path = tmp_path / "traj.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            read_trajectories(path)
        assert err.value.line == bad_line

    @pytest.mark.parametrize("content, bad_line", [(b"\xff\n", 1), (HEADER.encode() + b"\n\xff\n", 2)])
    def test_a_file_that_is_not_utf8_is_a_parse_error_naming_the_line(self, tmp_path, content, bad_line):
        path = tmp_path / "traj.jsonl"
        path.write_bytes(content)
        with pytest.raises(ParseError, match="not UTF-8") as err:
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
        lines = [HEADER, _record(), _record(frame="1", selected="3"), SECOND_HEADER, _record()]
        path.write_text("\n".join(lines) + "\n")
        loaded = read_trajectories(path)
        assert [sel for _, _, sel in loaded] == [[0, 3], [0]]
        assert loaded[0][1] == [ViewingAngle(1.0, 2.0)] * 2
