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
from viewpilot.config import RunConfig, load_run_config
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
    "text",
    [
        '{"trian": {}}',
        '{"train": {"learning_rate": 0.1}}',
        '{"train": {"lr_initial": "fast"}}',
        '{"scene": {"slots": 2.5}}',
        '{"train": {"baseline": 1}}',
        '{"train": {"batch_size": 0}}',
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
    ],
)
def test_bad_override_exits_4(tmp_path, capsys, override):
    out = tmp_path / "episodes.jsonl"
    code = _run(capsys, "gen-data", "--config", REFERENCE, "--set", override, "--out", out)
    assert code == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize(
    "override",
    ["train.lr_initial=NaN", "train.seq_len=1", "model.selector_hidden=0", "train.lr_decay=0"],
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
    assert capsys.readouterr().err.startswith("no methods given; valid methods: agent,")


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
