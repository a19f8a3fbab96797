"""Tests for action refinement and the regression + smoothness loss."""

import math

import numpy as np
import pytest

from viewpilot.errors import InvalidInput
from viewpilot.geometry import Action, ViewingAngle, angular_offset, apply_action
from viewpilot.regressor import RegressorNetwork, trajectory_loss, trajectory_loss_grad


class TestNaiveAction:
    """The naive follow offset fed to the regressor is angular_offset(view, main)."""

    def test_already_there(self):
        x = ViewingAngle(77, 8)
        assert angular_offset(x, x) == Action(0, 0)

    def test_wrap_aware_offset(self):
        delta = angular_offset(ViewingAngle(350, 0), ViewingAngle(10, 5))
        assert delta.d_azimuth == pytest.approx(20.0)
        assert delta.d_elevation == pytest.approx(5.0)

    def test_applying_lands_on_target(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            prev = ViewingAngle(rng.uniform(0, 360), rng.uniform(-80, 80))
            main = ViewingAngle(rng.uniform(0, 360), rng.uniform(-80, 80))
            landed = apply_action(prev, angular_offset(prev, main))
            assert landed.azimuth == pytest.approx(main.azimuth, abs=1e-9)
            assert landed.elevation == pytest.approx(main.elevation, abs=1e-9)


class TestRegressorForward:
    def test_zero_weights_emit_zero_action(self):
        net = RegressorNetwork(6, 4, np.random.default_rng(0))
        for p in net.params():
            p.values[...] = 0.0
        _, delta = net.forward(np.ones(6), np.array([30.0, -10.0]), net.initial_state())
        np.testing.assert_array_equal(delta, np.zeros(2))

    def test_deterministic(self):
        net = RegressorNetwork(6, 4, np.random.default_rng(1))
        args = (np.linspace(0, 1, 6), np.array([5.0, 2.0]), np.zeros(4))
        mu1, d1 = net.forward(*args)
        mu2, d2 = net.forward(*args)
        np.testing.assert_array_equal(mu1, mu2)
        np.testing.assert_array_equal(d1, d2)

    def test_single_unit_hand_fixture(self):
        # cell ignores its input (zero weights) and holds atanh(0.5) bias, so
        # mu = 0.5; the 2x1 head (10, 0) then emits delta = (5, 0).
        net = RegressorNetwork(3, 1, np.random.default_rng(2))
        net.cell.w_xh.values[...] = 0.0
        net.cell.w_hh.values[...] = 0.0
        net.cell.b.values[...] = math.atanh(0.5)
        net.head.w.values[...] = np.array([[10.0], [0.0]])
        _, delta = net.forward(np.ones(3), np.array([-3.0, 7.0]), net.initial_state())
        assert delta[0] == pytest.approx(5.0, abs=1e-12)
        assert delta[1] == pytest.approx(0.0, abs=1e-12)

    def test_motion_dimension_checked(self):
        net = RegressorNetwork(6, 4, np.random.default_rng(3))
        with pytest.raises(InvalidInput):
            net.forward(np.ones(5), np.zeros(2), net.initial_state())


def _angles(pairs):
    return [ViewingAngle(a, e) for a, e in pairs]


class TestTrajectoryLoss:
    def test_perfect_static_fit_is_zero(self):
        traj = _angles([(100, 10)] * 5)
        loss = trajectory_loss(traj, traj, lam=10)
        assert loss.regression == 0.0
        assert loss.smoothness == 0.0
        assert loss.total == 0.0

    def test_constant_velocity_pays_only_the_startup_term(self):
        # v_1 is defined as (0, 0), so a (1, 0) deg/frame track over T=3
        # contributes one smoothness term ||v_2 - v_1|| = 1.
        traj = _angles([(0, 0), (1, 0), (2, 0)])
        loss = trajectory_loss(traj, traj, lam=10)
        assert loss.regression == 0.0
        assert loss.smoothness == pytest.approx(1.0)

    def test_constant_offset_hand_value(self):
        gt = _angles([(10, 0)] * 4)
        pred = _angles([(13, 0)] * 4)
        loss = trajectory_loss(pred, gt, lam=10)
        assert loss.regression == pytest.approx(12.0)
        assert loss.smoothness == pytest.approx(0.0)
        assert loss.total == pytest.approx(12.0)

    def test_wraparound_regression(self):
        gt = _angles([(359, 0), (359, 0)])
        pred = _angles([(1, 0), (1, 0)])
        assert trajectory_loss(pred, gt, lam=0).regression == pytest.approx(4.0)

    def test_total_combines_terms_exactly(self):
        rng = np.random.default_rng(4)
        pred = _angles(zip(rng.uniform(0, 360, 6), rng.uniform(-40, 40, 6)))
        gt = _angles(zip(rng.uniform(0, 360, 6), rng.uniform(-40, 40, 6)))
        for lam in (0.0, 1.0, 10.0):
            loss = trajectory_loss(pred, gt, lam)
            assert loss.total == loss.regression + lam * loss.smoothness

    def test_lambda_monotone_in_total(self):
        rng = np.random.default_rng(5)
        pred = _angles(zip(rng.uniform(0, 360, 8), rng.uniform(-40, 40, 8)))
        gt = _angles(zip(rng.uniform(0, 360, 8), rng.uniform(-40, 40, 8)))
        totals = [trajectory_loss(pred, gt, lam).total for lam in (0, 1, 5, 10, 50)]
        assert all(a <= b for a, b in zip(totals, totals[1:]))

    def test_nonnegative_and_zero_regression_iff_equal(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            pred = _angles(zip(rng.uniform(0, 360, 5), rng.uniform(-40, 40, 5)))
            gt = _angles(zip(rng.uniform(0, 360, 5), rng.uniform(-40, 40, 5)))
            loss = trajectory_loss(pred, gt, 10)
            assert loss.regression >= 0 and loss.smoothness >= 0
            assert (loss.regression == 0) == (pred == gt)

    def test_length_mismatch(self):
        with pytest.raises(InvalidInput):
            trajectory_loss(_angles([(0, 0)] * 3), _angles([(0, 0)] * 4), 1)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        pred = np.column_stack([rng.uniform(0, 360, 8), rng.uniform(-40, 40, 8)])
        gt = pred + rng.normal(scale=4.0, size=pred.shape)
        lam = 10.0
        analytic = trajectory_loss_grad(pred, gt, lam)
        h = 1e-6
        for t in range(8):
            for c in range(2):
                plus, minus = pred.copy(), pred.copy()
                plus[t, c] += h
                minus[t, c] -= h
                numeric = (
                    trajectory_loss(plus, gt, lam).total - trajectory_loss(minus, gt, lam).total
                ) / (2 * h)
                assert analytic[t, c] == pytest.approx(numeric, abs=1e-5)
