"""Tests for the run configuration and the CLI's documented exit codes.

Every failure must map to its exit code with a one-line message on
stderr, never a traceback.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from viewpilot.agent import ModelDims, PilotModel, save_model_checkpoint
from viewpilot.cli import (
    EXIT_CONFIG, EXIT_GRADCHECK_FAILED, EXIT_IO, EXIT_NUMERICS, EXIT_OK, EXIT_USAGE, main,
)
from viewpilot.config import (
    DataConfig, EvalConfig, ModelConfig, PathsConfig, RunConfig, load_run_config,
)
from viewpilot.diffcore import LrSchedule
from viewpilot.errors import InvalidInput
from viewpilot.observation import SceneConfig, generate_dataset, save_episodes
from viewpilot.training import TrainConfig

REFERENCE = Path(__file__).resolve().parents[1] / "configs" / "reference.json"
SCENE = SceneConfig(frames=20, objects=2, slots=3, appearance_dim=4, motion_bins=4)
DIMS = ModelDims(4, 4, 3, selector_hidden=4, regressor_hidden=4)


def _run(capsys, *argv) -> int:
    code = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code


def _episodes(tmp_path, truncated=False) -> Path:
    path = tmp_path / "episodes.jsonl"
    save_episodes(generate_dataset(SCENE, 1, 2), path)
    if truncated:
        text = path.read_text()
        path.write_text(text[: len(text) * 3 // 4])  # ends inside a frame record
    return path


def _small_config(tmp_path) -> Path:
    """A config file whose scene and model fit ``_episodes``."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scene": dataclasses.asdict(SCENE), "model": {
        "selector_hidden": DIMS.selector_hidden, "regressor_hidden": DIMS.regressor_hidden
    }}))
    return config


def test_reference_config_is_the_default():
    assert load_run_config(REFERENCE) == RunConfig()


@pytest.mark.parametrize(
    "fields",
    [{"dp_smooth_weight": -1.0}, {"dp_smooth_weight": float("nan")},
     {"grid_step": float("nan")}, {"h_span": float("nan")}],
)
def test_eval_config_refuses_an_out_of_range_or_nan_field(fields):
    with pytest.raises(InvalidInput):
        EvalConfig(**fields)


# One instance of each settings dataclass, valid as it stands.
SETTINGS = [
    SceneConfig(), TrainConfig(), LrSchedule(0.02, 0.9, 50), DIMS,
    ModelConfig(), DataConfig(), EvalConfig(), PathsConfig(),
]
WRONG_TYPE = {"int": True, "float": True, "bool": 1, "str": 1}


def test_every_settings_field_has_a_checked_type():
    # A field of any other annotation would escape diffcore.check_field_types.
    for settings in SETTINGS:
        for f in dataclasses.fields(settings):
            assert f.type in WRONG_TYPE, f"{type(settings).__name__}.{f.name}: {f.type}"


@pytest.mark.parametrize(
    "settings, name",
    [(s, f.name) for s in SETTINGS for f in dataclasses.fields(s)],
    ids=lambda v: type(v).__name__ if dataclasses.is_dataclass(v) else v,
)
def test_a_settings_field_refuses_a_value_of_the_wrong_type(settings, name):
    kind = {f.name: f.type for f in dataclasses.fields(settings)}[name]
    with pytest.raises(InvalidInput, match=f"{name} must be "):
        dataclasses.replace(settings, **{name: WRONG_TYPE[kind]})


@pytest.mark.parametrize(
    "override",
    [
        "train.seed=1.5",
        "scene.position_noise=NaN",
        "scene.center_speed_max=Infinity",
        "scene.elevation_limit=1e400",
        pytest.param("scene.cluster_radius=" + "9" * 400, id="scene.cluster_radius=<400 digits>"),
    ],
)
def test_a_value_an_override_refuses_for_its_type_is_refused_by_the_dataclass(override):
    path, raw = override.split("=")
    section, name = path.split(".")
    cls = {"scene": SceneConfig, "train": TrainConfig}[section]
    with pytest.raises(InvalidInput, match=f"^{name} must be"):
        cls(**{name: json.loads(raw)})


def test_a_float_field_stores_an_int_as_its_float():
    config = TrainConfig(lr_initial=1)
    assert type(config.lr_initial) is float and config.lr_initial == 1.0


@pytest.mark.parametrize(
    "text",
    [
        pytest.param('{"scene": {"cluster_radius": ' + "9" * 5000 + "}}", id="<5000 digits>"),
        '{"trian": {}}',
        '{"train": {"learning_rate": 0.1}}',
        '{"train": {"lr_initial": "fast"}}',
        '{"scene": {"slots": 2.5}}',
        '{"train": {"baseline": 1}}',
        '{"train": {"batch_size": 0}}',
        '{"train": {"seed": -3}}',
        '{"train": []}',
        "[]",
        '{"train": {',
    ],
)
def test_bad_config_file_exits_4(tmp_path, capsys, text):
    config = tmp_path / "config.json"
    config.write_text(text)
    out = tmp_path / "episodes.jsonl"
    assert _run(capsys, "gen-data", "--config", config, "--out", out) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize(
    "override",
    [
        "train.lr_initial",
        "train.lr_initial=fast",
        "train.seed=1.5",
        "lr_initial=0.1",
        "train.lr.initial=0.1",
        "trian.seed=1",
        "train.sed=1",
        "scene.position_noise=NaN",  # written, then rejected by load_episodes
        "scene.center_speed_max=Infinity",  # OverflowError in the generator
        "scene.elevation_limit=1e400",  # JSON reads it as infinity
        pytest.param("scene.cluster_radius=" + "9" * 400, id="scene.cluster_radius=<400 digits>"),
        pytest.param("scene.cluster_radius=" + "9" * 5000, id="scene.cluster_radius=<5000 digits>"),
        "scene.objects=0",
        "scene.motion_bins=0",
        "scene.score_shape=0",
        "scene.segment_min=41",  # above segment_max
        "scene.turn_limit=-1",
        "scene.elevation_limit=-1",
        "scene.cluster_radius=-1",
        "scene.center_speed_min=3",  # above center_speed_max
        "scene.appearance_dim=0",  # written, then rejected by train
        "data.train_count=-1",  # wrote an empty file
        "data.test_count=0",
        "model.selector_hidden=0",
        "model.regressor_hidden=0",
        "eval.grid_step=181",
        "eval.h_span=361",
        "eval.dp_smooth_weight=-1",
        "train.lr_initial=0",
        "train.lr_decay=-0.5",
        "train.lr_period=0",
        "data.seed=-5",  # numpy refuses a negative seed
    ],
)
def test_bad_override_exits_4(tmp_path, capsys, override):
    out = tmp_path / "episodes.jsonl"
    code = _run(capsys, "gen-data", "--config", REFERENCE, "--set", override, "--out", out)
    assert code == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize(
    "override",
    [
        "train.lr_initial=NaN", "train.seq_len=1", "model.selector_hidden=0", "train.lr_decay=0",
        "train.q_samples=1",  # with the default mean baseline
    ],
)
def test_bad_training_setting_exits_4(tmp_path, capsys, override):
    run = tmp_path / "run"
    config, data = _small_config(tmp_path), _episodes(tmp_path)
    argv = ("train", "--config", config, "--set", override, "--data", data)
    assert _run(capsys, *argv, "--out", run, "--epochs", 2, "--quiet") == EXIT_CONFIG
    assert not run.exists()


@pytest.mark.parametrize("data_dims", [(3, 5, 3), (5, 3, 4)], ids=["swapped d/k", "other n"])
def test_train_and_eval_on_episodes_of_other_dims_exit_4(tmp_path, capsys, data_dims):
    # config and checkpoint at d/k/n = (5, 3, 3); swapped d/k keep the flat width
    scene = dataclasses.replace(SCENE, appearance_dim=5, motion_bins=3)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scene": dataclasses.asdict(scene), "model": {
        "selector_hidden": DIMS.selector_hidden, "regressor_hidden": DIMS.regressor_hidden
    }}))
    d, k, n = data_dims
    data = tmp_path / "episodes.jsonl"
    other = dataclasses.replace(SCENE, appearance_dim=d, motion_bins=k, slots=n)
    save_episodes(generate_dataset(other, 1, 2), data)
    checkpoint = tmp_path / "model.json"
    dims = dataclasses.replace(DIMS, appearance_dim=5, motion_bins=3)
    model = PilotModel(dims, np.random.default_rng(0))
    save_model_checkpoint(checkpoint, model, 0, TrainConfig().schedule(), {})
    run, out = tmp_path / "run", tmp_path / "bench.jsonl"
    for argv in (
        ("train", "--data", data, "--out", run, "--epochs", 1, "--quiet"),
        ("eval", "--data", data, "--checkpoint", checkpoint, "--methods", "agent", "--out", out),
        ("eval", "--data", data, "--checkpoint", checkpoint, "--methods", "selector_only"),
    ):
        code = main([str(a) for a in argv + ("--config", config)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.strip() == f"configuration error: episode dims d/k/n {data_dims} do not match " + (
            "the config's (5, 3, 3)" if argv[0] == "train" else "the checkpoint's (5, 3, 3)"
        )
    assert not run.exists() and not out.exists()


@pytest.mark.parametrize("override", ["eval.grid_step=0", "eval.h_span=0", "eval.h_span=-5"])
def test_bad_eval_setting_exits_4(tmp_path, capsys, override):
    argv = ("eval", "--set", override, "--data", _episodes(tmp_path), "--methods", "offline_dp")
    assert _run(capsys, *argv) == EXIT_CONFIG


@pytest.mark.parametrize(
    "argv",
    [
        ("gen-data", "--count", "0"),
        ("gradcheck", "--seeds", "0"),  # checked nothing and passed
        ("gradcheck", "--tolerance", "nan"),  # failed every check
        ("eval", "--jobs", "0"),  # the --jobs flag is gone: an unknown flag
        ("eval", "--jobs", "-3"),
        ("gradcheck", "--corrupt-mode", "selector"),  # gone: --corrupt applies to the joint check
        ("gen-data", "--seed", "-1"),  # numpy refuses a negative seed
    ],
    ids=lambda argv: " ".join(argv),
)
def test_bad_flag_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out.jsonl"
    extra = ("--out", out) if argv[0] in ("gen-data", "eval") else ()
    if argv[0] == "eval":
        extra += ("--data", _episodes(tmp_path), "--methods", "center_hold")
    assert _run(capsys, *argv, *extra) == EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize(
    "arch",
    [
        {**DIMS.as_dict(), "layers": 2},
        {k: v for k, v in DIMS.as_dict().items() if k != "slots"},
        {**DIMS.as_dict(), "slots": -3},
        {**DIMS.as_dict(), "slots": "3"},
        list(DIMS.as_dict().values()),
    ],
    ids=["extra key", "missing key", "negative", "string", "list"],
)
def test_pilot_on_a_malformed_checkpoint_arch_exits_3(tmp_path, capsys, arch):
    checkpoint = tmp_path / "model.json"
    model = PilotModel(DIMS, np.random.default_rng(0))
    save_model_checkpoint(checkpoint, model, 0, TrainConfig().schedule(), {"seed": 0})
    doc = json.loads(checkpoint.read_text())
    doc["arch"] = arch
    checkpoint.write_text(json.dumps(doc))
    out = tmp_path / "trajectory.jsonl"
    argv = ("pilot", "--checkpoint", checkpoint, "--data", _episodes(tmp_path), "--out", out)
    assert _run(capsys, *argv) == EXIT_IO


def test_train_on_a_truncated_episode_file_exits_3(tmp_path, capsys):
    data = _episodes(tmp_path, truncated=True)
    code = _run(capsys, "train", "--data", data, "--out", tmp_path / "run", "--quiet")
    assert code == EXIT_IO


def test_pilot_on_a_truncated_episode_file_exits_3(tmp_path, capsys):
    checkpoint = tmp_path / "model.json"
    model = PilotModel(DIMS, np.random.default_rng(0))
    save_model_checkpoint(checkpoint, model, 0, TrainConfig().schedule(), {"seed": 0})
    data = _episodes(tmp_path, truncated=True)
    out = tmp_path / "trajectory.jsonl"
    code = _run(capsys, "pilot", "--checkpoint", checkpoint, "--data", data, "--out", out)
    assert code == EXIT_IO


def test_a_config_file_that_is_not_utf8_exits_4(tmp_path, capsys):
    config, out = tmp_path / "config.json", tmp_path / "episodes.jsonl"
    config.write_bytes(b'\xff\xfe{"train": {}}')
    code = main(["gen-data", "--config", str(config), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("configuration error") and "utf-8" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("lineno", [1, 35])  # a header; a frame past the reader's first chunk
@pytest.mark.parametrize("command", ["train", "eval", "pilot"])
def test_an_episode_file_that_is_not_utf8_exits_3_naming_the_line(tmp_path, capsys, command, lineno):
    data = _episodes(tmp_path)
    lines = data.read_bytes().split(b"\n")
    assert len(b"\n".join(lines[:34])) > 8192
    lines[lineno - 1] = lines[lineno - 1][:9] + b"\xff" + lines[lineno - 1][9:]
    data.write_bytes(b"\n".join(lines))
    checkpoint = tmp_path / "model.json"
    model = PilotModel(DIMS, np.random.default_rng(0))
    save_model_checkpoint(checkpoint, model, 0, TrainConfig().schedule(), {"seed": 0})
    argv = {
        "train": ("--config", _small_config(tmp_path), "--out", tmp_path / "run", "--quiet"),
        "eval": ("--methods", "center_hold"),
        "pilot": ("--checkpoint", checkpoint, "--out", tmp_path / "trajectory.jsonl"),
    }[command]
    code = main([str(a) for a in (command, "--data", data) + argv])
    err = capsys.readouterr().err
    assert code == EXIT_IO
    assert err.startswith(f"data error: line {lineno}: not UTF-8 text") and "Traceback" not in err


def test_pilot_with_a_nan_parameter_exits_5(tmp_path, capsys):
    checkpoint = tmp_path / "model.json"
    model = PilotModel(DIMS, np.random.default_rng(0))
    save_model_checkpoint(checkpoint, model, 0, TrainConfig().schedule(), {"seed": 0})
    doc = json.loads(checkpoint.read_text())
    doc["params"]["regressor.head.w"]["values"][1] = float("nan")  # json writes and reads NaN
    checkpoint.write_text(json.dumps(doc))
    argv = ["pilot", "--checkpoint", checkpoint, "--data", _episodes(tmp_path)]
    code = main([str(a) for a in argv + ["--out", tmp_path / "trajectory.jsonl"]])
    err = capsys.readouterr().err
    assert code == EXIT_NUMERICS
    assert err.startswith("numerics error") and "Traceback" not in err


@pytest.mark.parametrize(
    "step, views", [(1.0, "a 64800-view grid"), (4.0, "a 4050-view grid"), (1e-310, "more than")]
)
def test_eval_grid_too_large_for_the_dp_exits_4_with_its_view_count(tmp_path, capsys, step, views):
    out = tmp_path / "bench.jsonl"
    argv = ["eval", "--set", f"eval.grid_step={step}", "--data", _episodes(tmp_path)]
    code = main([str(a) for a in argv + ["--methods", "center_hold,offline_dp", "--out", out]])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("configuration error") and views in err
    assert not out.exists()


def test_a_grid_too_large_for_the_dp_is_no_error_without_offline_dp(tmp_path, capsys):
    data, out = _episodes(tmp_path), tmp_path / "bench.jsonl"
    argv = ("eval", "--set", "eval.grid_step=1", "--data", data, "--methods", "center_hold")
    assert _run(capsys, *argv, "--out", out) == EXIT_OK
    assert out.exists()


def test_eval_on_an_episode_too_short_for_mvd_names_it_and_exits_2(tmp_path, capsys):
    data, out = tmp_path / "short.jsonl", tmp_path / "bench.jsonl"
    assert _run(capsys, "gen-data", "--set", "scene.frames=2", "--count", 2, "--out", data) == EXIT_OK
    argv = ["eval", "--data", data, "--methods", "center_hold,offline_dp", "--out", out]
    code = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.strip() == "error: episode 0 has 2 frames; MVD needs at least 3"
    assert not out.exists()


def test_unknown_method_exits_2(tmp_path, capsys):
    data = _episodes(tmp_path)
    assert _run(capsys, "eval", "--data", data, "--methods", "center_hold,bogus") == EXIT_USAGE


@pytest.mark.parametrize("methods", [",", "", " , "])
def test_empty_method_list_exits_2_before_reading_data(tmp_path, capsys, methods):
    code = main(["eval", "--data", str(tmp_path / "missing.jsonl"), "--methods", methods])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: no methods given; valid methods: agent,")


def test_eval_of_a_model_method_without_a_checkpoint_exits_2_before_reading_data(tmp_path, capsys):
    argv = ("eval", "--data", tmp_path / "missing.jsonl", "--methods", "center_hold,selector_only")
    assert _run(capsys, *argv) == EXIT_USAGE


INT_FIELDS = [
    f"{section.name}.{f.name}"
    for section in dataclasses.fields(RunConfig)
    for f in dataclasses.fields(section.default_factory)
    if f.type in ("int", int)
]


@pytest.mark.parametrize("field", INT_FIELDS)
def test_each_integer_config_field_at_minus_one_exits_4(tmp_path, capsys, field):
    out = tmp_path / "episodes.jsonl"
    code = _run(capsys, "gen-data", "--set", f"{field}=-1", "--count", 1, "--out", out)
    assert code == EXIT_CONFIG
    assert not out.exists()


class TestResumeEpoch:
    """``train --resume`` reads a checkpoint's epoch as a count that must
    match its file name; otherwise the checkpoint is unreadable."""

    @staticmethod
    def _train(tmp_path, capsys, epochs, *extra) -> tuple[int, str]:
        argv = ("train", "--config", _small_config(tmp_path), "--data", _episodes(tmp_path),
                "--out", tmp_path / "run", "--epochs", epochs, "--quiet", *extra)
        code = main([str(a) for a in argv])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return code, err

    @staticmethod
    def _set_epoch(source: Path, target: Path, epoch) -> None:
        doc = json.loads(source.read_text())
        doc["epoch"] = epoch
        target.write_text(json.dumps(doc))

    @pytest.mark.parametrize("epoch", ["0", 0.0, False, -1, None])
    def test_an_epoch_that_is_not_a_count_exits_3(self, tmp_path, capsys, epoch):
        assert self._train(tmp_path, capsys, 0)[0] == EXIT_OK
        checkpoint = tmp_path / "run" / "checkpoint_epoch00000.json"
        self._set_epoch(checkpoint, checkpoint, epoch)
        code, err = self._train(tmp_path, capsys, 2, "--resume")
        assert code == EXIT_IO
        assert err.splitlines()[-1].startswith("data error: checkpoint")
        assert f"has epoch {epoch!r}, not a non-negative integer" in err

    def test_an_epoch_other_than_the_file_names_falls_back_or_exits_3(self, tmp_path, capsys):
        assert self._train(tmp_path, capsys, 0)[0] == EXIT_OK
        run = tmp_path / "run"
        self._set_epoch(run / "checkpoint_epoch00000.json", run / "checkpoint_epoch00001.json", 5)
        code, err = self._train(tmp_path, capsys, 2, "--resume")
        assert code == EXIT_OK
        assert err.startswith("warning: skipping unreadable checkpoint checkpoint_epoch00001.json")
        assert "holds epoch 5, not 1" in err
        rows = (run / "metrics.jsonl").read_text().splitlines()
        assert [json.loads(row)["epoch"] for row in rows] == [1, 2]  # trained from epoch 0
        for epoch in (0, 2):
            (run / f"checkpoint_epoch{epoch:05d}.json").unlink()
        code, err = self._train(tmp_path, capsys, 2, "--resume")
        assert code == EXIT_IO and "holds epoch 5, not 1" in err.splitlines()[-1]

    def test_a_seed_other_than_the_checkpoints_exits_4(self, tmp_path, capsys):
        assert self._train(tmp_path, capsys, 2)[0] == EXIT_OK
        code, err = self._train(tmp_path, capsys, 4, "--resume", "--set", "train.seed=8")
        assert code == EXIT_CONFIG
        assert "and seed 7; the config has" in err and "and seed 8" in err
        assert self._train(tmp_path, capsys, 4, "--resume")[0] == EXIT_OK


def test_gen_data_writes_the_golden_episode_file(tmp_path, capsys):
    # the digest of tests/test_observation.py::TestGoldenDigests, through the command
    out = tmp_path / "episodes.jsonl"
    argv = ("gen-data", "--config", REFERENCE, "--seed", 2026, "--count", 3, "--out", out)
    assert _run(capsys, *argv) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "971efb889dc5e74974e521a530cb54054e128ccd3264cd68e50dc8cf476e325c"
    )


def test_gradcheck_with_a_corrupted_gradient_exits_1(capsys):
    code = main(["gradcheck", "--seeds", "1", "--corrupt", "regressor.cell.w_hh"])
    err = capsys.readouterr().err
    assert code == EXIT_GRADCHECK_FAILED == 1
    assert "FAILED" in err and "Traceback" not in err


def _pilot_golden_file(tmp_path, capsys, bad_frame=None):
    """`viewpilot pilot` over the golden episode file with a fixed-seed model
    at the reference dims; a score of 1.5 makes frame ``bad_frame`` bad.
    Returns the exit code and the trajectory file's bytes."""
    data, checkpoint, out = (tmp_path / f for f in ("episodes.jsonl", "model.json", "traj.jsonl"))
    save_episodes(generate_dataset(load_run_config(REFERENCE).scene, 2026, 3), data)
    dims = ModelDims(16, 12, 8, selector_hidden=32, regressor_hidden=8)
    model = PilotModel(dims, np.random.default_rng(7))
    save_model_checkpoint(checkpoint, model, 0, TrainConfig().schedule(), {"seed": 7})
    if bad_frame is not None:
        lines = data.read_text().splitlines()
        rec = json.loads(lines[1 + bad_frame])
        rec["objects"][1][0] = 1.5
        lines[1 + bad_frame] = json.dumps(rec)
        data.write_text("\n".join(lines) + "\n")
    code = _run(capsys, "pilot", "--checkpoint", checkpoint, "--data", data, "--out", out)
    return code, out.read_bytes()


def test_pilot_writes_the_golden_trajectory(tmp_path, capsys):
    code, trajectory = _pilot_golden_file(tmp_path, capsys)
    assert code == EXIT_OK and len(trajectory.splitlines()) == 3 * 201
    assert hashlib.sha256(trajectory).hexdigest() == (
        "fb0bb018ba20981f1e5c6726bdafbbfaf69bec231888ea63415702866568521e"
    )


def test_pilot_keeps_the_frames_before_a_bad_record(tmp_path, capsys):
    code, partial = _pilot_golden_file(tmp_path, capsys, bad_frame=70)
    assert code == EXIT_IO
    assert len(partial.splitlines()) == 1 + 70  # the header and frames 0-69
    assert hashlib.sha256(partial).hexdigest() == (
        "cc9ff388d0b5bc33d1499ce01bfad30148f8da7c69f72f7a2350f30fa51879a9"
    )
