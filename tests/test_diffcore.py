"""Tests for the differentiable plumbing: cell, softmax, SGD, schedules,
gradient checking, and checkpoints."""

import json

import numpy as np
import pytest

from viewpilot.cli import EXIT_IO, main
from viewpilot.diffcore import (
    GradCheckResult,
    Linear,
    LrSchedule,
    ParamTensor,
    TanhRnnCell,
    clip_gradients,
    gradient_check,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    softmax,
)
from viewpilot.errors import ConfigError, InvalidInput, NumericsError, ParseError, VersionError
from viewpilot.training import TrainConfig


class TestSoftmax:
    def test_uniform_on_zero_logits(self):
        np.testing.assert_allclose(softmax(np.zeros(3)), np.full(3, 1 / 3), atol=1e-15)

    def test_shift_invariance(self):
        # bitwise identical when the shift is exact in float
        z = np.array([0.5, -1.0, 4.0, 0.0])
        np.testing.assert_array_equal(softmax(z), softmax(z + 2.0))
        z = np.array([0.3, -1.2, 4.0, 0.0])
        np.testing.assert_allclose(softmax(z), softmax(z + 123.456), rtol=1e-12)

    def test_stable_under_huge_logits(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(20, 7)) * 10
        out = softmax(z)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out > 0)


class TestTanhRnnCell:
    def test_zero_weights_give_zero_state(self):
        cell = TanhRnnCell("c", 3, 4, np.random.default_rng(0))
        for p in cell.params():
            p.values[...] = 0.0
        h = cell.step(np.ones(3), np.ones(4))
        np.testing.assert_array_equal(h, np.zeros(4))

    def test_outputs_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(1)
        cell = TanhRnnCell("c", 5, 6, rng)
        for _ in range(50):
            h = cell.step(rng.normal(size=5), rng.uniform(-1, 1, 6))
            assert np.all(np.abs(h) < 1.0)
        # float64 tanh saturates to exactly +-1 for extreme pre-activations,
        # so the bound is only non-strict there
        h = cell.step(rng.normal(size=5) * 1e6, rng.uniform(-1, 1, 6))
        assert np.all(np.abs(h) <= 1.0)

    def test_scalar_cell_value(self):
        cell = TanhRnnCell("c", 1, 1, np.random.default_rng(0))
        cell.w_xh.values[...] = 1.0
        cell.w_hh.values[...] = 0.0
        cell.b.values[...] = 0.0
        h = cell.step(np.array([0.5]), np.zeros(1))
        assert h[0] == pytest.approx(0.46211715726000974, abs=1e-12)

    def test_dimension_mismatch(self):
        cell = TanhRnnCell("c", 3, 4, np.random.default_rng(0))
        with pytest.raises(InvalidInput):
            cell.step(np.ones(5), np.zeros(4))

    def test_unroll_matches_stepping(self):
        rng = np.random.default_rng(2)
        cell = TanhRnnCell("c", 5, 6, rng)
        cell.b.values[...] = rng.normal(size=6)
        xs = rng.normal(size=(3, 7, 5))
        hs = cell.unroll(xs)
        assert hs.shape == (3, 8, 6)
        h = np.zeros((3, 6))
        np.testing.assert_array_equal(hs[:, 0], h)
        for t in range(7):
            h = cell.step(xs[:, t], h)
            np.testing.assert_allclose(hs[:, t + 1], h, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("name", ["w_xh", "w_hh", "b"])
    def test_unroll_over_stacked_weights_is_each_slice_alone(self, name):
        # gradient_check stacks the probes of one tensor on a leading axis;
        # every slice must be the float the 2-D unroll gives for it.
        rng = np.random.default_rng(4)
        cell = TanhRnnCell("c", 5, 6, rng)
        xs = rng.normal(size=(2, 9, 5))
        param = getattr(cell, name)
        stack = param.values + rng.normal(size=(3,) + param.shape)
        param.values = stack
        stacked = cell.unroll(xs)
        assert stacked.shape == (3, 2, 10, 6)
        for i in range(3):
            param.values = stack[i]
            np.testing.assert_array_equal(stacked[i], cell.unroll(xs))

    @pytest.mark.parametrize("name", ["w_xh", "w_hh", "b"])
    def test_step_over_stacked_weights_is_each_slice_alone(self, name):
        # training._steer steps the regressor cell under stacked probes,
        # into its state buffer through the positional ``out``.
        rng = np.random.default_rng(4)
        cell = TanhRnnCell("c", 5, 6, rng)
        x, h = rng.normal(size=(3, 2, 5)), rng.uniform(-1, 1, size=(2, 6))
        param = getattr(cell, name)
        stack = param.values + rng.normal(size=(3,) + param.shape)
        param.values = stack
        out = np.empty((3, 2, 6))
        assert cell.step(x, h, out) is out
        for i in range(3):
            param.values = stack[i]
            np.testing.assert_array_equal(out[i], cell.step(x[i], h))


class TestBpttBackward:
    def test_zero_upstream_gives_zero_grads(self):
        cell = TanhRnnCell("c", 3, 4, np.random.default_rng(2))
        xs = np.random.default_rng(0).normal(size=(1, 5, 3))
        dh0 = cell.backward_unroll(np.zeros((1, 5, 4)), xs, cell.unroll(xs))
        np.testing.assert_array_equal(dh0, np.zeros((1, 4)))
        for p in cell.params():
            np.testing.assert_array_equal(p.grad, np.zeros(p.shape))

    def test_single_affine_grad_is_input(self):
        # y = W x with scalar loss y: dW = x
        rng = np.random.default_rng(3)
        layer = Linear("l", 4, 1, rng)
        x = rng.normal(size=(1, 4))
        layer.backward(np.ones((1, 1)), x)
        np.testing.assert_allclose(layer.w.grad, x, atol=1e-15)

    def test_matches_finite_differences(self):
        # Sum-of-hidden-states loss over a short unroll vs central differences.
        rng = np.random.default_rng(5)
        cell = TanhRnnCell("c", 3, 4, rng)
        xs = rng.normal(size=(1, 6, 3))

        def loss_fn(param, values):  # the probed tensor is installed in the cell
            hs = cell.unroll(xs)[..., 1:, :]
            return hs.reshape(hs.shape[:-3] + (-1,)).sum(axis=-1)

        cell.backward_unroll(np.ones((1, 6, 4)), xs, cell.unroll(xs))
        result = gradient_check(loss_fn, cell.params(), tolerance=1e-4)
        assert result.passed, result.max_rel_error


class TestLrSchedule:
    def test_reference_defaults_decay_at_period(self):
        sched = TrainConfig().schedule()
        assert sched == LrSchedule(0.02, 0.9, 50)
        assert sched.lr(0) == pytest.approx(0.02)
        assert sched.lr(49) == pytest.approx(0.02)
        assert sched.lr(50) == pytest.approx(0.018)

    def test_non_increasing(self):
        sched = LrSchedule(1e-3, 0.5, 3)
        rates = [sched.lr(e) for e in range(40)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_positive_fields_required(self):
        with pytest.raises(InvalidInput):
            LrSchedule(-1.0, 0.9, 50)


class TestSgdStep:
    def test_zero_grad_is_fixed_point(self):
        p = ParamTensor("p", np.array([1.0, 2.0]))
        sgd_step([p], 0.1)
        np.testing.assert_array_equal(p.values, [1.0, 2.0])

    def test_update_arithmetic(self):
        p = ParamTensor("p", np.array([1.0]))
        p.grad[...] = 2.0
        sgd_step([p], 0.1)
        assert p.values[0] == pytest.approx(0.8)
        assert p.grad[0] == 0.0

    def test_nonfinite_gradient_raises_before_update(self):
        p = ParamTensor("p", np.array([1.0]))
        p.grad[...] = np.nan
        with pytest.raises(NumericsError):
            sgd_step([p], 0.1)
        assert p.values[0] == 1.0

    def test_clipping_bounds_global_norm(self):
        p = ParamTensor("p", np.zeros(4))
        p.grad[...] = 10.0
        clip_gradients([p], 5.0)  # as train_step clips before its step
        sgd_step([p], 1.0)
        assert np.linalg.norm(p.values) == pytest.approx(5.0)


def per_entry_gradient_check(loss_fn, params, tolerance=1e-4):
    """``gradient_check`` one probe at a time: the scalar ``loss_fn()`` reads
    the parameters, whose entries are moved in place. The reference the
    stacked check must match bit for bit."""
    step = 1e-5
    analytic = {p.name: p.grad.copy() for p in params}
    errors = {}
    for p in params:
        worst = 0.0
        flat = p.values.reshape(-1)
        ref = analytic[p.name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = loss_fn()
            flat[i] = orig - step
            f_minus = loss_fn()
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericsError(f"non-finite loss while probing {p.name}[{i}]")
            numeric = (f_plus - f_minus) / (2.0 * step)
            denom = max(abs(ref[i]), abs(numeric), 1e-3)
            worst = max(worst, abs(ref[i] - numeric) / denom)
        errors[p.name] = worst
    return GradCheckResult(errors, tolerance)


class TestGradientCheck:
    def test_negative_control_fails(self):
        p = ParamTensor("p", np.array([0.3, -0.7]))

        def loss_fn(param, values):
            return np.sum(values**2, axis=-1)

        p.grad[...] = 2.0 * p.values
        assert gradient_check(loss_fn, [p]).passed
        p.grad[...] = 2.0 * p.values + 0.5
        assert not gradient_check(loss_fn, [p]).passed

    def test_empty_parameter_list_passes_vacuously(self):
        result = gradient_check(lambda param, values: np.zeros(len(values)), [])
        assert result.passed
        assert result.max_rel_error == {}

    def test_nonfinite_loss_raises(self):
        # sqrt is NaN only at the minus probe of the entry at zero
        p = ParamTensor("p", np.array([1.0, 2.0, 0.0, 3.0]))

        def loss_fn(param, values):
            with np.errstate(invalid="ignore"):
                return np.sqrt(values).sum(axis=-1)

        with pytest.raises(NumericsError, match=r"probing p\[2\]"):
            gradient_check(loss_fn, [p])

    def test_nan_analytic_gradient_fails(self):
        # a NaN error must fail the check, not drop out of the running max
        p = ParamTensor("p", np.array([0.3, -0.7]))
        p.grad[...] = [0.6, np.nan]
        result = gradient_check(lambda param, values: np.sum(values**2, axis=-1), [p])
        assert not result.passed

    def test_blocks_match_the_per_entry_reference(self):
        # More entries than one block holds, and not a multiple of the block.
        rng = np.random.default_rng(7)
        p = ParamTensor("p", rng.normal(size=(25, 40)))
        weights = rng.normal(size=p.shape)
        p.grad[...] = np.cos(p.values) * weights
        p.grad[3, 5] += 1e-3  # one entry far enough off to set the worst error
        blocks = []

        def loss_fn(param, values):
            blocks.append(len(values))
            terms = np.sin(values) * weights
            return terms.reshape(len(values), -1).sum(axis=-1)

        got = gradient_check(loss_fn, [p]).max_rel_error
        assert len(blocks) > 1 and sum(blocks) == 2 * p.values.size and blocks[-1] < blocks[0]
        want = per_entry_gradient_check(lambda: float(np.sum(np.sin(p.values) * weights)), [p])
        assert got == want.max_rel_error


class TestCheckpoints:
    def _params(self, seed=0):
        rng = np.random.default_rng(seed)
        return [
            ParamTensor("a.w", rng.normal(size=(3, 4))),
            ParamTensor("b.w", rng.normal(size=(2,))),
        ]

    def test_round_trip_bit_exact(self, tmp_path):
        params = self._params()
        path = tmp_path / "ckpt.json"
        arch = {"slots": 4}
        save_checkpoint(path, arch, 7, TrainConfig().schedule(), {"seed": 1}, params)
        ckpt = load_checkpoint(path)
        assert ckpt.epoch == 7
        assert ckpt.arch == arch
        assert ckpt.schedule == TrainConfig().schedule()
        for p in params:
            np.testing.assert_array_equal(ckpt.params[p.name], p.values)

    def test_architecture_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, {"slots": 4}, 0, TrainConfig().schedule(), {}, self._params())
        load_checkpoint(path, expect_arch={"slots": 4})
        with pytest.raises(ConfigError):
            load_checkpoint(path, expect_arch={"slots": 8})

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, {}, 0, TrainConfig().schedule(), {}, self._params())
        doc = path.read_text().replace('"format_version": 1', '"format_version": 9', 1)
        path.write_text(doc)
        with pytest.raises(VersionError):
            load_checkpoint(path)

    def test_truncated_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, {}, 0, TrainConfig().schedule(), {}, self._params())
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ParseError):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["arch", "epoch", "lr_schedule", "rng", "params", "digest"])
    def test_missing_key_is_a_parse_error(self, tmp_path, key):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, {}, 0, TrainConfig().schedule(), {}, self._params())
        doc = json.loads(path.read_text())
        del doc[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=key):
            load_checkpoint(path)

    def test_digest_mismatch_is_a_parse_error(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, {}, 0, TrainConfig().schedule(), {}, self._params())
        doc = json.loads(path.read_text())
        doc["params"]["b.w"]["values"][0] += 1e-12
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="digest"):
            load_checkpoint(path)

    def test_cli_exits_3_on_a_truncated_checkpoint(self, tmp_path, capsys):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, {}, 0, TrainConfig().schedule(), {}, self._params())
        path.write_text(path.read_text()[:40])
        out = tmp_path / "out.jsonl"
        code = main(["pilot", "--checkpoint", str(path), "--data", str(path), "--out", str(out)])
        assert code == EXIT_IO
        assert "Traceback" not in capsys.readouterr().err

    def test_a_failed_write_leaves_the_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, {}, 0, TrainConfig().schedule(), {}, self._params())
        before = path.read_bytes()

        def crash(doc, fh):
            fh.write('{"format_version": 1, "arch": {}, "ep')
            raise OSError("no space left on device")

        monkeypatch.setattr(json, "dump", crash)
        with pytest.raises(OSError):
            save_checkpoint(path, {}, 1, TrainConfig().schedule(), {}, self._params(1))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]
