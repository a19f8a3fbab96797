"""Tests for the differentiable plumbing: cell, softmax, SGD, schedules,
and gradient checking."""

import numpy as np
import pytest

from viewpilot.diffcore import (
    GradCheckResult,
    Linear,
    LrSchedule,
    ParamTensor,
    TanhRnnCell,
    clip_gradients,
    gradient_check,
    sgd_step,
    softmax,
)
from viewpilot.errors import InvalidInput, NumericsError
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


class TestDotIsMatmul:
    """The recurrent loops and the online pilot call ``ndarray.dot`` where
    they once used ``@``, because both reach the same BLAS routine for 1-D
    and 2-D operands. A numpy or BLAS build that routes one of these forms
    differently fails here, rather than silently moving the golden digests."""

    DRAWS = 50
    SHAPES = [(14, 8), (8, 8), (8, 2), (240, 32), (32, 32), (32, 8)]  # the reference (K, H)

    @pytest.mark.parametrize("k, h", SHAPES)
    def test_vector_times_transposed_matrix(self, k, h):
        rng = np.random.default_rng(k * h)
        out = np.empty(h)
        for _ in range(self.DRAWS):
            x, w = rng.normal(size=k), rng.normal(size=(h, k))
            want = x @ w.T
            np.testing.assert_array_equal(x.dot(w.T), want)
            assert x.dot(w.T, out=out) is out
            np.testing.assert_array_equal(out, want)

    @pytest.mark.parametrize("b", [1, 2, 10, 50])
    @pytest.mark.parametrize("k, h", SHAPES)
    def test_batch_times_transposed_matrix(self, b, k, h):
        rng = np.random.default_rng([b, k, h])
        out, want = np.empty((b, h)), np.empty((b, h))
        for _ in range(self.DRAWS):
            x, w = rng.normal(size=(b, k)), rng.normal(size=(h, k))
            np.matmul(x, w.T, out=want)
            np.testing.assert_array_equal(x.dot(w.T), want)
            assert x.dot(w.T, out=out) is out
            np.testing.assert_array_equal(out, want)

    @pytest.mark.parametrize("b", [1, 2, 10, 50])
    def test_backward_products(self, b):
        # backward_window's g.dot(w_r) and backward_step's d.dot(w_hh)
        rng = np.random.default_rng(b)
        for _ in range(self.DRAWS):
            w_hh, w_r = rng.normal(size=(8, 8)), rng.normal(size=(2, 8))
            g, d = rng.normal(size=(b, 2)), rng.normal(size=(b, 8))
            np.testing.assert_array_equal(g.dot(w_r), g @ w_r)
            np.testing.assert_array_equal(d.dot(w_hh), d @ w_hh)

    @pytest.mark.parametrize("b", [2, 10, 50])
    def test_strided_weight_slice_from_two_rows(self, b):
        # backward_window's d @ w_xh[:, k:] stays on ``@``: at B=1, ``@`` runs
        # numpy's own loop over the strided slice and ``dot`` a BLAS gemv,
        # 1 ulp apart; from two rows on they agree.
        rng = np.random.default_rng(b)
        for _ in range(self.DRAWS):
            w_off, d = rng.normal(size=(8, 14))[:, 12:], rng.normal(size=(b, 8))
            assert not w_off.flags.c_contiguous
            np.testing.assert_array_equal(d.dot(w_off), d @ w_off)


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

    @pytest.mark.parametrize(
        "fields", [(float("nan"), 0.9, 50), (0.02, float("nan"), 50), (0.02, 0.9, float("nan"))]
    )
    def test_a_nan_field_is_refused(self, fields):
        with pytest.raises(InvalidInput):
            LrSchedule(*fields)

    @pytest.mark.parametrize("index, name", enumerate(["initial", "decay", "period"]))
    def test_an_infinite_field_is_refused_by_name(self, index, name):
        fields = [0.02, 0.9, 50]
        fields[index] = float("inf")
        with pytest.raises(InvalidInput, match=f"schedule {name} must be finite"):
            LrSchedule(*fields)


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

    @pytest.mark.parametrize("lr", [0.0, -0.1, float("nan")])
    def test_a_non_positive_or_nan_lr_is_refused_before_the_update(self, lr):
        p = ParamTensor("p", np.array([1.0]))
        p.grad[...] = 2.0
        with pytest.raises(InvalidInput, match="learning rate must be positive"):
            sgd_step([p], lr)
        assert p.values[0] == 1.0 and p.grad[0] == 2.0

    def test_an_infinite_lr_is_refused_before_the_update(self):
        # inf * [0, 1] would leave [nan, -inf]
        p = ParamTensor("p", np.array([1.0, 1.0]))
        p.grad[...] = [0.0, 1.0]
        with pytest.raises(InvalidInput, match="learning rate must be finite, got inf"):
            sgd_step([p], float("inf"))
        np.testing.assert_array_equal(p.values, [1.0, 1.0])
        np.testing.assert_array_equal(p.grad, [0.0, 1.0])

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
