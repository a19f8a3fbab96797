"""Tests for the training path: finite-difference checks of every
hand-derived backward pass, and the contracts the batched rollout keeps
with the per-frame computations it replaces."""

import dataclasses
import itertools
import json
from types import SimpleNamespace

import numpy as np
import pytest

from viewpilot import gradcheck
from viewpilot.agent import (
    CHECKPOINT_FORMAT_VERSION, ModelDims, PilotModel, pilot_episode, save_model_checkpoint,
)
from viewpilot.diffcore import ParamTensor, gradient_check, softmax
from viewpilot.errors import (
    ConfigError, InvalidInput, NumericsError, ParseError, StateError, VersionError,
)
from viewpilot.geometry import signed_azimuth_delta_array
from viewpilot.gradcheck import (
    CHECK_LAMBDA, MODES, check_model, check_trajectory_loss, make_check_batch,
)
from viewpilot.observation import SceneConfig, episode_arrays, generate_dataset, synth_scene
from viewpilot.regressor import loss_grad, loss_terms
from viewpilot.training import (
    TrainConfig,
    WindowBatch,
    backward_window,
    checkpoint_name,
    pack_windows,
    policy_upstream,
    rollout_window,
    slice_windows,
    surrogate_loss,
    train,
    train_step,
)

from test_diffcore import per_entry_gradient_check  # one probe per loss call
from test_selector import policy_gradient_contribution, sample_indices  # per-frame references

TOLERANCE = 1e-4
# Smaller than gradcheck.CHECK_DIMS so that every mode checks in about a second.
CHECK_DIMS = ModelDims(appearance_dim=4, motion_bins=5, slots=3, selector_hidden=6, regressor_hidden=4)
CHECK_FRAMES = 6

DIMS = ModelDims(appearance_dim=6, motion_bins=5, slots=4, selector_hidden=8, regressor_hidden=4)
SCENE = SceneConfig(frames=40, objects=3, slots=4, appearance_dim=6, motion_bins=5)


def _model(seed=0):
    return PilotModel(DIMS, np.random.default_rng(seed))


def _batch(count=4, seq_len=20, seed=3):
    episodes = generate_dataset(SCENE, seed, count)
    arrays = [episode_arrays(ep) for ep in episodes]
    return pack_windows(arrays, slice_windows([len(ep) for ep in episodes], seq_len))


class TestGradientChecks:
    @pytest.mark.parametrize("mode", MODES)
    def test_model_gradients_match_finite_differences(self, mode):
        result = check_model(mode, 0, dims=CHECK_DIMS, frames=CHECK_FRAMES, tolerance=TOLERANCE)
        assert result.passed, result.max_rel_error

    def test_corrupted_gradient_fails(self):
        result = check_model(
            "joint", 0, dims=CHECK_DIMS, frames=CHECK_FRAMES, tolerance=TOLERANCE,
            corrupt="regressor.cell.w_hh",
        )
        assert not result.passed
        assert result.worst[0] == "regressor.cell.w_hh"

    def test_trajectory_loss_gradient_matches_finite_differences(self):
        result = check_trajectory_loss(0, tolerance=TOLERANCE)
        assert result.passed, result.max_rel_error

    def test_regressor_gradients_hold_at_the_elevation_clamp(self):
        # Objects and ground truth just below the pole steer the view past
        # it, so some frames land on the clamp, where the backward pass must
        # stop the elevation gradient.
        batch, forced = make_check_batch(CHECK_DIMS, 10, 0)
        batch.positions[..., 1] = np.random.default_rng(1).uniform(
            89.0, 89.5, batch.positions.shape[:-1]
        )
        batch.gt[..., 1] = 89.5
        model = PilotModel(CHECK_DIMS, np.random.default_rng([0, 100]))
        tape = rollout_window(model, batch, forced_indices=forced)
        assert not tape.el_free.all()
        lam = 10.0
        backward_window(model, tape, lam, pg_weight=0.0)

        def loss_fn():
            return surrogate_loss(model, batch, forced, tape.rewards, lam, pg_weight=0.0)

        result = per_entry_gradient_check(loss_fn, model.regressor.params(), tolerance=TOLERANCE)
        assert result.passed, result.max_rel_error
        stacked = gradient_check(lambda param, values: loss_fn(), model.regressor.params())
        assert stacked.max_rel_error == result.max_rel_error


def _check_model_one_loss(mode, seed, dims, frames, tolerance, corrupt=None):
    """``check_model`` as one gradient check of the whole surrogate: every
    probe re-evaluates both the policy and the steering term."""
    sup_w, pg_w = {"selector": (0.0, 1.0), "regressor": (1.0, 0.0), "joint": (1.0, 1.0)}[mode]
    model = PilotModel(dims, np.random.default_rng([seed, 100]))
    batch, forced = make_check_batch(dims, frames, seed)
    tape = rollout_window(model, batch, forced_indices=forced)
    frozen = tape.rewards.copy()
    for p in model.params():
        p.zero_grad()
    backward_window(model, tape, CHECK_LAMBDA, pg_weight=pg_w, sup_weight=sup_w)
    if mode == "selector":
        params = model.selector.params()
    elif mode == "regressor":
        params = model.regressor.params()
    else:
        params = model.params()
    if corrupt is not None:
        chosen = [p for p in params if p.name == corrupt][0]
        chosen.grad += 0.5 * (1.0 + np.abs(chosen.grad))

    def loss_fn():
        return surrogate_loss(
            model, batch, forced, frozen, CHECK_LAMBDA, pg_weight=pg_w, sup_weight=sup_w
        )

    return per_entry_gradient_check(loss_fn, params, tolerance=tolerance)


def _per_entry_check_model(monkeypatch, *args, **kwargs):
    """``check_model`` with every probe evaluated alone by the per-entry loop."""
    def per_entry(loss_fn, params, tolerance):
        return per_entry_gradient_check(lambda: loss_fn(None, None), params, tolerance)

    with monkeypatch.context() as patch:
        patch.setattr(gradcheck, "gradient_check", per_entry)
        return check_model(*args, **kwargs)


class TestSplitGradientCheck:
    """``check_model`` probes each network against its own term of the
    surrogate plus the other term's nominal value."""

    DIMS = ModelDims(3, 3, 3, selector_hidden=3, regressor_hidden=3)
    FRAMES = 4

    @pytest.mark.parametrize(
        "mode, seed, corrupt",
        [(mode, seed, None) for mode in MODES for seed in range(3)]
        + [("joint", 0, "selector.cell.w_hh"), ("joint", 0, "regressor.cell.w_hh")],
    )
    def test_equals_one_check_of_the_whole_loss(self, mode, seed, corrupt):
        args = (mode, seed, self.DIMS, self.FRAMES, TOLERANCE, corrupt)
        got = check_model(*args).max_rel_error
        want = _check_model_one_loss(*args).max_rel_error
        assert list(got.items()) == list(want.items())

    @pytest.mark.parametrize(
        "mode, corrupt", [(mode, None) for mode in MODES] + [("selector", "selector.cell.w_xh")]
    )
    def test_stacked_probes_equal_the_per_entry_check_at_the_bench_dims(
        self, monkeypatch, mode, corrupt
    ):
        # gradcheck.CHECK_DIMS at seed 0 is the benchmark's configuration;
        # selector.cell.w_xh there spans several probe blocks.
        got = check_model(mode, 0, corrupt=corrupt).max_rel_error
        want = _per_entry_check_model(monkeypatch, mode, 0, corrupt=corrupt).max_rel_error
        assert list(got.items()) == list(want.items())

    def test_trajectory_check_equals_the_per_entry_check(self):
        got = check_trajectory_loss(0).max_rel_error
        rng = np.random.default_rng([0, 103])
        pred = np.column_stack([rng.uniform(0, 360, 12), rng.uniform(-50, 50, 12)])
        gt = pred + rng.normal(scale=5.0, size=(12, 2))
        tensor = ParamTensor("trajectory.pred", pred)
        tensor.grad[...] = loss_grad(pred[None], gt[None], CHECK_LAMBDA)[0]

        def loss_fn():
            reg, smo = loss_terms(tensor.values[None], gt[None])
            return float(reg[0]) + CHECK_LAMBDA * float(smo[0])

        assert got == per_entry_gradient_check(loss_fn, [tensor]).max_rel_error

    @pytest.mark.parametrize("network, pg_weight, sup_weight", [
        ("selector", 0.0, 1.0), ("regressor", 1.0, 0.0),
    ])
    def test_a_term_ignores_the_other_network(self, network, pg_weight, sup_weight):
        # Under forced selections steering never reads the selector and the
        # policy term never reads the regressor; the split check relies on it.
        model = PilotModel(self.DIMS, np.random.default_rng(4))
        batch, forced = make_check_batch(self.DIMS, self.FRAMES, 4)
        rewards = np.random.default_rng(5).normal(size=(1, self.FRAMES, 1))

        def loss(pg_w, sup_w):
            return surrogate_loss(model, batch, forced, rewards, CHECK_LAMBDA, pg_w, sup_w)

        nominal, moved = loss(pg_weight, sup_weight), loss(sup_weight, pg_weight)
        rng = np.random.default_rng(6)
        for p in getattr(model, network).params():
            p.values += rng.normal(size=p.values.shape)
        assert loss(pg_weight, sup_weight) == nominal
        assert loss(sup_weight, pg_weight) != moved  # the perturbation reaches its own term


class TestRolloutContracts:
    def test_packed_motions_are_a_view_of_the_packed_flat(self):
        episodes = generate_dataset(SCENE, 3, 3)
        windows = slice_windows([len(ep) for ep in episodes], 15)  # 0-15, 15-30, 30-40 each
        windows = [w for w in windows if w.stop - w.start == 15]
        batch = pack_windows(episodes, windows)
        want = np.stack([episodes[w.episode].motions[w.start : w.stop] for w in windows])
        assert np.shares_memory(batch.motions, batch.flat)
        assert batch.motions.shape == want.shape == (6, 15, SCENE.slots, SCENE.motion_bins)
        assert np.array_equal(batch.motions, want)

    def test_samples_follow_the_per_frame_draw_order(self):
        batch, drawn = _batch(), np.random.default_rng(11)
        tape = rollout_window(_model(), batch, rng=drawn, q_samples=2)
        rng = np.random.default_rng(11)
        for t in range(batch.frames):
            for q in range(2):
                np.testing.assert_array_equal(
                    tape.indices[:, t, q], sample_indices(tape.probs[:, t], rng)
                )
        assert drawn.random() == rng.random()  # both streams end in the same state

    def test_greedy_rollout_reproduces_pilot_episode(self):
        model, episode = _model(1), synth_scene(SCENE, 7)
        arrays = episode_arrays(episode)
        batch = WindowBatch(
            arrays.flat[None], arrays.positions[None], arrays.motions[None], arrays.gt_track[None]
        )
        picks = np.argmax(model.selector.unroll(batch.flat)[1], axis=-1)
        tape = rollout_window(model, batch, forced_indices=picks)
        trajectory, selections = pilot_episode(episode, model)
        assert tape.indices[0, :, 0].tolist() == selections.tolist()
        online = np.array([[a.azimuth, a.elevation] for a in trajectory])
        daz = signed_azimuth_delta_array(tape.pred[0, :, 0] - online[:, 0])
        assert np.max(np.abs(daz)) <= 1e-12
        assert np.max(np.abs(tape.pred[0, :, 1] - online[:, 1])) <= 1e-12

    @pytest.mark.parametrize("lr", [0.0, -1.0, float("nan")])
    def test_a_non_positive_lr_is_refused_before_the_rollout(self, lr):
        model, episodes = _model(), generate_dataset(SCENE, 3, 2)
        arrays = [episode_arrays(ep) for ep in episodes]
        windows = slice_windows([len(ep) for ep in episodes], 20)
        for p in model.params():
            p.grad += 1.0
        before = [(p.values.copy(), p.grad.copy()) for p in model.params()]
        with pytest.raises(InvalidInput, match=f"learning rate must be positive, got {lr}"):
            train_step(model, arrays, windows, TrainConfig(), lr, np.random.default_rng(0))
        for p, (values, grad) in zip(model.params(), before):
            np.testing.assert_array_equal(p.values, values)
            np.testing.assert_array_equal(p.grad, grad)

    def test_steps_over_one_and_two_window_groups_match_the_golden_digest(self):
        # Pins the training arithmetic bit for bit, including a one-window
        # (B=1) group, where ``@`` on a strided weight slice runs numpy's own
        # loop rather than BLAS.
        model, episodes = _model(), generate_dataset(SCENE, 3, 3)
        arrays = [episode_arrays(ep) for ep in episodes]
        windows = slice_windows([len(ep) for ep in episodes], 30)[:3]  # lengths 30, 10, 30
        for step in range(3):
            train_step(model, arrays, windows, TrainConfig(), 0.02, np.random.default_rng(step))
        assert model.digest() == "617ec5947fa5"

    def test_an_infinite_lr_is_refused_before_the_rollout(self):
        model, episodes = _model(), generate_dataset(SCENE, 3, 2)
        arrays = [episode_arrays(ep) for ep in episodes]
        windows = slice_windows([len(ep) for ep in episodes], 20)
        digest = model.digest()
        with pytest.raises(InvalidInput, match="learning rate must be finite, got inf"):
            train_step(model, arrays, windows, TrainConfig(), float("inf"), np.random.default_rng(0))
        assert model.digest() == digest

    @pytest.mark.parametrize(
        "fault, message",
        [("position", "non-finite rollout loss"), ("selector weight", "non-finite gradient in selector")],
    )
    def test_a_non_finite_loss_or_gradient_aborts_the_step_untouched(self, fault, message):
        # Windows of 30 and 10 frames: the 10-frame group, which holds the NaN
        # position, runs after the 30-frame group has accumulated its grads.
        model, episodes = _model(), generate_dataset(SCENE, 3, 2)
        windows = slice_windows([len(ep) for ep in episodes], 30)
        if fault == "position":
            episodes[1].positions[35] = np.nan
        else:  # only the policy-gradient term reads the selector
            model.selector.params()[0].values[0, 0] = np.nan
        before = [p.values.tobytes() for p in model.params()]
        with pytest.raises(NumericsError, match=message):
            train_step(model, episodes, windows, TrainConfig(), 0.02, np.random.default_rng(0))
        assert [p.values.tobytes() for p in model.params()] == before
        assert not any(p.grad.any() for p in model.params())

    def test_backward_on_a_consumed_tape_is_a_state_error(self):
        model = _model()
        tape = rollout_window(model, _batch(), rng=np.random.default_rng(0))
        backward_window(model, tape, 1.0)
        with pytest.raises(StateError):
            backward_window(model, tape, 1.0)

    def test_extra_sample_on_the_driving_selection_earns_its_reward(self):
        tape = rollout_window(_model(), _batch(), rng=np.random.default_rng(5), q_samples=3)
        for q in (1, 2):
            same = tape.indices[..., q] == tape.indices[..., 0]
            assert same.any() and not same.all()
            np.testing.assert_allclose(
                tape.rewards[..., q][same], tape.rewards[..., 0][same], rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("baseline", [False, True])
    def test_policy_upstream_matches_per_frame_contribution(self, baseline):
        batch = _batch()
        tape = rollout_window(_model(), batch, rng=np.random.default_rng(2), q_samples=2)
        pg_weight = 2.5
        upstream = policy_upstream(tape, pg_weight, baseline)
        assert upstream.shape == tape.probs.shape
        for b in range(batch.size):
            for t in range(batch.frames):
                expected = -(pg_weight / batch.size) * policy_gradient_contribution(
                    tape.probs[b, t], tape.indices[b, t], tape.rewards[b, t], baseline=baseline
                )
                np.testing.assert_allclose(upstream[b, t], expected, rtol=1e-12, atol=1e-15)


class TestPolicyUpstreamExpectation:
    """Enumerating every index tuple, weighted by its probability, gives the
    estimator's exact expectation. With the mean baseline, which includes
    each sample's own reward, it is (Q-1)/Q times the exact all-slot
    gradient -(pg/B) * sum_i p_i (r_i - rbar)(e_i - p); without it, the
    whole gradient."""

    @pytest.mark.parametrize("q", [2, 3])
    def test_expected_upstream_is_the_scaled_all_slot_gradient(self, q):
        rng = np.random.default_rng(q)
        b, n, pg_weight = 3, 4, 2.5
        probs = softmax(rng.normal(size=(b, 1, n)))  # B windows of one frame
        rewards = rng.uniform(-1.0, 1.0, size=(b, n))
        expected = {True: 0.0, False: 0.0}
        for pick in itertools.product(range(n), repeat=q):
            pick = np.array(pick)
            tape = SimpleNamespace(
                probs=probs, indices=np.tile(pick, (b, 1, 1)), rewards=rewards[:, None, pick]
            )
            weight = np.prod(probs[:, :, pick], axis=2)[..., None]  # (B, 1, 1)
            for baseline in expected:
                expected[baseline] += weight * policy_upstream(tape, pg_weight, baseline)
        p = probs[:, 0]
        centered = rewards - (p * rewards).sum(axis=1, keepdims=True)
        exact = -(pg_weight / b) * np.einsum("bi,bi,bij->bj", p, centered, np.eye(n) - p[:, None])
        np.testing.assert_allclose(expected[True][:, 0], (q - 1) / q * exact, rtol=0, atol=1e-12)
        np.testing.assert_allclose(expected[False][:, 0], exact, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "field, value",
    [("eta", 0.0), ("max_epochs", -1), ("smooth_lambda", -1.0), ("grad_clip", -1.0), ("pg_weight", -1.0)]
    + [("seed", -1), ("seed", float("nan"))]
    + [(field, float("nan")) for field in
       ("eta", "smooth_lambda", "grad_clip", "pg_weight", "lr_initial", "lr_decay")],
)
def test_train_config_refuses_an_out_of_range_or_nan_field(field, value):
    with pytest.raises(InvalidInput):
        TrainConfig(**{field: value})


def test_train_config_refuses_one_sample_with_the_mean_baseline():
    with pytest.raises(InvalidInput, match="baseline needs q_samples >= 2, got 1"):
        TrainConfig(q_samples=1)
    assert TrainConfig(q_samples=1, baseline=False).q_samples == 1


def test_a_step_with_one_unbaselined_sample_moves_the_selector():
    """With the mean baseline a single sample's policy-gradient terms are all
    zero, so Q=1 trains the selector only without it."""
    model, episodes = _model(), generate_dataset(SCENE, 3, 2)
    arrays = [episode_arrays(ep) for ep in episodes]
    windows = slice_windows([len(ep) for ep in episodes], 20)
    config = TrainConfig(q_samples=1, baseline=False)
    before = [p.values.copy() for p in model.selector.params()]
    train_step(model, arrays, windows, config, 0.02, np.random.default_rng(0))
    moved = max(np.abs(p.values - b).max() for p, b in zip(model.selector.params(), before))
    assert moved > 1e-4


@pytest.mark.parametrize(
    "field", ["lr_initial", "lr_decay", "eta", "smooth_lambda", "grad_clip", "pg_weight"]
)
def test_train_config_refuses_an_infinite_field_by_name(field):
    with pytest.raises(InvalidInput, match=f"{field} must be finite, got inf"):
        TrainConfig(**{field: float("inf")})


class TestResume:
    CONFIG = TrainConfig(batch_size=2, seq_len=20, max_epochs=4, checkpoint_interval=2)

    @staticmethod
    def _rows(out_dir):
        return (out_dir / "metrics.jsonl").read_text().splitlines()

    def test_resume_rewrites_the_rows_after_the_checkpoint(self, tmp_path):
        episodes = generate_dataset(SCENE, 3, 2)
        config = dataclasses.replace(self.CONFIG, max_epochs=7, checkpoint_interval=5)
        train(episodes, config, DIMS, tmp_path)
        (tmp_path / checkpoint_name(7)).unlink()
        train(episodes, dataclasses.replace(config, max_epochs=9), DIMS, tmp_path, resume=True)
        assert [json.loads(row)["epoch"] for row in self._rows(tmp_path)] == list(range(1, 10))

    def test_resume_warns_when_metrics_rows_are_missing(self, tmp_path, capsys):
        episodes = generate_dataset(SCENE, 3, 2)
        train(episodes, self.CONFIG, DIMS, tmp_path)
        (tmp_path / "metrics.jsonl").unlink()
        capsys.readouterr()
        train(episodes, dataclasses.replace(self.CONFIG, max_epochs=6), DIMS, tmp_path, resume=True)
        warning = capsys.readouterr().err.splitlines()
        assert len(warning) == 1 and "metrics.jsonl holds 0 rows, expected 4" in warning[0]
        assert [json.loads(row)["epoch"] for row in self._rows(tmp_path)] == [5, 6]

    def test_two_epochs_plus_a_resumed_two_equal_four(self, tmp_path):
        episodes = generate_dataset(SCENE, 3, 2)
        straight, _ = train(episodes, self.CONFIG, DIMS, tmp_path / "straight")
        split = tmp_path / "split"
        train(episodes, dataclasses.replace(self.CONFIG, max_epochs=2), DIMS, split)
        resumed, _ = train(episodes, self.CONFIG, DIMS, split, resume=True)
        assert resumed.digest() == straight.digest()
        assert self._rows(split) == self._rows(tmp_path / "straight")

    def test_a_checkpoint_records_only_the_seed(self, tmp_path):
        train(generate_dataset(SCENE, 3, 2), self.CONFIG, DIMS, tmp_path)
        for epoch in (0, 2, 4):
            assert json.loads((tmp_path / checkpoint_name(epoch)).read_text())["rng"] == {"seed": 7}

    def test_a_checkpoint_with_the_former_rng_keys_resumes_alike(self, tmp_path):
        """Checkpoints used to carry a "scheme" and a "next_epoch" beside the
        seed; resuming from one reads only the seed."""
        episodes = generate_dataset(SCENE, 3, 2)
        straight, _ = train(episodes, self.CONFIG, DIMS, tmp_path / "straight")
        split = tmp_path / "split"
        train(episodes, dataclasses.replace(self.CONFIG, max_epochs=2), DIMS, split)
        path = split / checkpoint_name(2)
        doc = json.loads(path.read_text())
        doc["rng"] = {"scheme": "per-epoch-derived", "seed": 7, "next_epoch": 2}
        path.write_text(json.dumps(doc))
        resumed, _ = train(episodes, self.CONFIG, DIMS, split, resume=True)
        assert resumed.digest() == straight.digest()

    @pytest.mark.parametrize(
        "change, named",
        [({"seed": 99}, "seed 99"), ({"lr_initial": 0.5}, "initial=0.5"),
         ({"lr_decay": 0.5}, "decay=0.5"), ({"lr_period": 3}, "period=3")],
    )
    def test_a_config_other_than_the_checkpoints_is_refused(self, tmp_path, change, named):
        episodes = generate_dataset(SCENE, 3, 2)
        train(episodes, dataclasses.replace(self.CONFIG, max_epochs=2), DIMS, tmp_path)
        before = sorted(p.name for p in tmp_path.iterdir())
        other = dataclasses.replace(self.CONFIG, **change)
        with pytest.raises(ConfigError) as info:
            train(episodes, other, DIMS, tmp_path, resume=True)
        assert "seed 7" in str(info.value) and named in str(info.value)
        assert "initial=0.02, decay=0.9, period=50" in str(info.value)
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        longer = dataclasses.replace(self.CONFIG, max_epochs=3)
        _, history = train(episodes, longer, DIMS, tmp_path, resume=True)
        assert [row["epoch"] for row in history] == [3]  # max_epochs alone may change


def _truncate(doc: str) -> str:
    return doc[: len(doc) // 2]


def _drop_epoch(doc: str) -> str:
    rec = json.loads(doc)
    del rec["epoch"]
    return json.dumps(rec)


def _change_a_value(doc: str) -> str:
    rec = json.loads(doc)
    rec["params"]["selector.head.w"]["values"][0] += 1.0
    return json.dumps(rec)


def _new_version(doc: str) -> str:
    rec = json.loads(doc)
    rec["format_version"] = CHECKPOINT_FORMAT_VERSION + 1
    return json.dumps(rec)


class TestResumeFromADamagedCheckpoint:
    CONFIG = TrainConfig(batch_size=2, seq_len=20, max_epochs=7, checkpoint_interval=5)
    EPISODES = generate_dataset(SCENE, 3, 2)

    def _damaged_run(self, out_dir, damage):
        train(self.EPISODES, self.CONFIG, DIMS, out_dir)
        latest = out_dir / checkpoint_name(7)
        latest.write_text(damage(latest.read_text()))

    @pytest.fixture(scope="class")
    def straight(self, tmp_path_factory):
        nine = dataclasses.replace(self.CONFIG, max_epochs=9)
        model, _ = train(self.EPISODES, nine, DIMS, tmp_path_factory.mktemp("straight"))
        return model.digest()

    @pytest.mark.parametrize("damage", [_truncate, _drop_epoch, _change_a_value])
    def test_falls_back_to_the_newest_readable_one(self, tmp_path, capsys, straight, damage):
        self._damaged_run(tmp_path, damage)
        capsys.readouterr()
        nine = dataclasses.replace(self.CONFIG, max_epochs=9)
        resumed, history = train(self.EPISODES, nine, DIMS, tmp_path, resume=True)
        assert [row["epoch"] for row in history] == [6, 7, 8, 9]
        rows = (tmp_path / "metrics.jsonl").read_text().splitlines()
        assert [json.loads(row)["epoch"] for row in rows] == list(range(1, 10))
        assert resumed.digest() == straight
        warning = capsys.readouterr().err.splitlines()
        assert len(warning) == 1 and checkpoint_name(7) in warning[0]

    def test_version_and_architecture_mismatches_still_stop(self, tmp_path):
        self._damaged_run(tmp_path, _new_version)
        with pytest.raises(VersionError):
            train(self.EPISODES, self.CONFIG, DIMS, tmp_path, resume=True)
        other = PilotModel(dataclasses.replace(DIMS, selector_hidden=5), np.random.default_rng(0))
        schedule = TrainConfig().schedule()
        save_model_checkpoint(tmp_path / checkpoint_name(7), other, 7, schedule, {"seed": 0})
        with pytest.raises(ConfigError):
            train(self.EPISODES, self.CONFIG, DIMS, tmp_path, resume=True)

    def test_no_readable_checkpoint_raises_the_newest_error(self, tmp_path, capsys):
        self._damaged_run(tmp_path, _truncate)
        for epoch in (0, 5):
            (tmp_path / checkpoint_name(epoch)).write_text("{")
        with pytest.raises(ParseError, match=checkpoint_name(7)):
            train(self.EPISODES, self.CONFIG, DIMS, tmp_path, resume=True)
        assert len(capsys.readouterr().err.splitlines()) == 3
