"""Tests for action refinement and the regression + smoothness loss."""

import numpy as np
import pytest

from viewpilot.agent import ModelDims, PilotModel
from viewpilot.errors import InvalidInput
from viewpilot.gradcheck import CHECK_DIMS, make_check_batch
from viewpilot.observation import SceneConfig, synth_scene
from viewpilot.regressor import loss_grad, loss_terms
from viewpilot.training import WindowBatch, _steer, rollout_window, surrogate_loss

from test_geometry import follow_offset, steer


class TestNaiveAction:
    """The naive follow offset fed to the regressor (``training._follow_offset``)."""

    def test_already_there(self):
        np.testing.assert_array_equal(follow_offset([77.0, 8.0], [77.0, 8.0]), [0.0, 0.0])

    def test_wrap_aware_offset(self):
        delta = follow_offset([350.0, 0.0], [10.0, 5.0])
        assert delta[0] == pytest.approx(20.0)
        assert delta[1] == pytest.approx(5.0)

    def test_applying_lands_on_target(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            prev = [rng.uniform(0, 360), rng.uniform(-80, 80)]
            main = [rng.uniform(0, 360), rng.uniform(-80, 80)]
            landed = steer(prev, follow_offset(prev, main))
            assert landed[0] == pytest.approx(main[0], abs=1e-9)
            assert landed[1] == pytest.approx(main[1], abs=1e-9)


def _steering(motion_bins=6, hidden=4, seed=0):
    """``step(x, target_az, target_el, az, el, mu) -> (az, el, mu)``, a
    one-frame ``RegressorNetwork.steer`` of a fresh model's regressor, and
    that regressor."""
    dims = ModelDims(3, motion_bins, 2, selector_hidden=2, regressor_hidden=hidden)
    net = PilotModel(dims, np.random.default_rng(seed)).regressor

    def step(x, target_az, target_el, az, el, mu):
        [(az, el)], mu = net.steer(x[None], [(target_az, target_el)], az, el, mu)
        return az, el, mu

    return step, net


class TestRegressorForward:
    """``RegressorNetwork.steer`` over one frame of the regressor's forward."""

    def test_zero_weights_emit_zero_action(self):
        step, net = _steering()
        for p in net.params():
            p.values[...] = 0.0
        az, el, mu = step(np.ones(8), 130.0, -10.0, 100.0, 20.0, net.initial_state())
        assert (az, el) == (100.0, 20.0)
        np.testing.assert_array_equal(mu, np.zeros(4))

    def test_deterministic(self):
        step, net = _steering(seed=1)
        args = (105.0, 2.0, 100.0, 0.0, np.linspace(-0.5, 0.5, 4))
        az1, el1, mu1 = step(np.linspace(0, 1, 8), *args)
        az2, el2, mu2 = step(np.linspace(0, 1, 8), *args)
        assert (az1, el1) == (az2, el2)
        np.testing.assert_array_equal(mu1, mu2)

    def test_single_unit_hand_fixture(self):
        # cell ignores its input (zero weights) and holds atanh(0.5) bias, so
        # mu = 0.5; the 2x1 head (10, 0) then moves the view by (5, 0).
        step, net = _steering(motion_bins=1, hidden=1, seed=2)
        net.cell.w_xh.values[...] = 0.0
        net.cell.w_hh.values[...] = 0.0
        net.cell.b.values[...] = np.arctanh(0.5)
        net.head.values[...] = np.array([[10.0], [0.0]])
        az, el, mu = step(np.ones(3), 97.0, 14.0, 100.0, 7.0, net.initial_state())
        assert (az, el) == (105.0, 7.0)
        assert mu[0] == 0.5

    def test_motion_dimension_checked(self):
        # one motion bin too many reaches the regressor cell, whose step refuses it
        model = PilotModel(CHECK_DIMS, np.random.default_rng(3))
        batch, forced = make_check_batch(CHECK_DIMS, 6, 3)
        wide = np.concatenate([batch.motions, batch.motions[..., :1]], axis=-1)
        batch = WindowBatch(batch.flat, batch.positions, wide, batch.gt)
        with pytest.raises(InvalidInput, match="cell expects input 14 / hidden 8, got 15 / 8"):
            rollout_window(model, batch, forced_indices=forced)


def _fold_inputs():
    """A model with nonzero biases, a 120-frame episode, random picks (any
    picks steer) and ``steer``'s (xs, targets) for them."""
    dims = ModelDims(4, 5, 3, selector_hidden=6, regressor_hidden=4)
    scene = SceneConfig(frames=120, objects=2, slots=3, appearance_dim=4, motion_bins=5)
    model, rng = PilotModel(dims, np.random.default_rng(0)), np.random.default_rng(1)
    for p in model.params():
        p.values += 0.3 * rng.normal(size=p.shape)
    episode = synth_scene(scene, 3)
    frames = np.arange(len(episode))
    picks = rng.integers(0, 3, len(episode))
    xs = np.append(episode.motions[frames, picks], np.zeros((len(episode), 2)), axis=1)
    return model, episode, picks, xs, episode.positions[frames, picks].tolist()


class TestSteerFold:
    """``RegressorNetwork.steer`` folds on from whatever view and state it
    is handed: ``pilot_step`` is its T=1 fold, and a start rule other than
    the first gt angle only changes the view it starts from."""

    def test_a_fold_carried_on_equals_the_whole_fold(self):
        model, episode, _, xs, targets = _fold_inputs()
        net, start = model.regressor, episode.gt_track[0].tolist()
        whole, mu = net.steer(xs, targets, *start, net.initial_state())
        head, carried = net.steer(xs[:77], targets[:77], *start, net.initial_state())
        tail, last = net.steer(xs[77:], targets[77:], *head[-1], carried)
        assert head + tail == whole and last.tobytes() == mu.tobytes()
        view, state, steps = start, net.initial_state(), []
        for t in range(len(episode)):  # one frame per call, as pilot_step folds it
            [view], state = net.steer(xs[t : t + 1], targets[t : t + 1], *view, state)
            steps.append(view)
        assert steps == whole and state.tobytes() == mu.tobytes()

    def test_a_fold_from_another_start_equals_the_training_kernel(self):
        model, episode, picks, xs, targets = _fold_inputs()
        gt = episode.gt_track.copy()
        gt[0] = (123.0, 7.0)
        batch = WindowBatch(
            episode.flat[None], episode.positions[None], episode.motions[None], gt[None]
        )
        _, mus, _, angles = _steer(model, batch, picks[None])
        net = model.regressor
        views, mu = net.steer(xs, targets, 123.0, 7.0, net.initial_state())
        assert views != net.steer(xs, targets, *episode.gt_track[0].tolist(), net.initial_state())[0]
        assert angles[1:, 0].tolist() == [list(v) for v in views]
        assert mu.tobytes() == mus[-1, 0].tobytes()


def _track(pairs) -> np.ndarray:
    return np.array(list(pairs), dtype=np.float64)


def _loss(pred, gt, lam):
    """(regression, smoothness, total) of one (T, 2) trajectory from
    ``loss_terms``, with total = regression + lam * smoothness as the
    trajectory-loss gradient check sums it."""
    reg, smo = loss_terms(pred[None], gt[None])
    return float(reg[0]), float(smo[0]), float(reg[0]) + lam * float(smo[0])


class TestTrajectoryLoss:
    def test_perfect_static_fit_is_zero(self):
        traj = _track([(100, 10)] * 5)
        assert _loss(traj, traj, lam=10) == (0.0, 0.0, 0.0)

    def test_constant_velocity_pays_only_the_startup_term(self):
        # v_1 is defined as (0, 0), so a (1, 0) deg/frame track over T=3
        # contributes one smoothness term ||v_2 - v_1|| = 1.
        traj = _track([(0, 0), (1, 0), (2, 0)])
        regression, smoothness, _ = _loss(traj, traj, lam=10)
        assert regression == 0.0
        assert smoothness == pytest.approx(1.0)

    def test_constant_offset_hand_value(self):
        gt = _track([(10, 0)] * 4)
        pred = _track([(13, 0)] * 4)
        regression, smoothness, total = _loss(pred, gt, lam=10)
        assert regression == pytest.approx(12.0)
        assert smoothness == pytest.approx(0.0)
        assert total == pytest.approx(12.0)

    def test_wraparound_regression(self):
        gt = _track([(359, 0), (359, 0)])
        pred = _track([(1, 0), (1, 0)])
        assert _loss(pred, gt, lam=0)[0] == pytest.approx(4.0)

    def test_total_combines_terms_exactly(self):
        # the supervised objective the gradient check probes is exactly
        # regression + lam * smoothness of the rolled-out trajectory
        model = PilotModel(CHECK_DIMS, np.random.default_rng(4))
        batch, forced = make_check_batch(CHECK_DIMS, 12, 4)
        tape = rollout_window(model, batch, forced_indices=forced)
        reg, smo = loss_terms(tape.pred, batch.gt)
        for lam in (0.0, 1.0, 10.0):
            total = surrogate_loss(model, batch, forced, tape.rewards, lam, pg_weight=0.0)
            assert total == float(reg[0] + lam * smo[0])

    def test_lambda_monotone_in_total(self):
        rng = np.random.default_rng(5)
        pred = _track(zip(rng.uniform(0, 360, 8), rng.uniform(-40, 40, 8)))
        gt = _track(zip(rng.uniform(0, 360, 8), rng.uniform(-40, 40, 8)))
        totals = [_loss(pred, gt, lam)[2] for lam in (0, 1, 5, 10, 50)]
        assert all(a <= b for a, b in zip(totals, totals[1:]))

    def test_nonnegative_and_zero_regression_iff_equal(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            pred = _track(zip(rng.uniform(0, 360, 5), rng.uniform(-40, 40, 5)))
            gt = _track(zip(rng.uniform(0, 360, 5), rng.uniform(-40, 40, 5)))
            regression, smoothness, _ = _loss(pred, gt, 10)
            assert regression >= 0 and smoothness >= 0
            assert (regression == 0) == np.array_equal(pred, gt)
            assert _loss(pred, pred, 10)[0] == 0.0

    def test_length_mismatch(self):
        # trajectories of different lengths do not broadcast into a loss
        pred, gt = np.zeros((1, 3, 2)), np.zeros((1, 4, 2))
        with pytest.raises(ValueError):
            loss_terms(pred, gt)
        with pytest.raises(ValueError):
            loss_grad(pred, gt, 1.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        pred = np.column_stack([rng.uniform(0, 360, 8), rng.uniform(-40, 40, 8)])
        gt = pred + rng.normal(scale=4.0, size=pred.shape)
        lam = 10.0
        analytic = loss_grad(pred[None], gt[None], lam)[0]
        h = 1e-6
        for t in range(8):
            for c in range(2):
                plus, minus = pred.copy(), pred.copy()
                plus[t, c] += h
                minus[t, c] -= h
                numeric = (_loss(plus, gt, lam)[2] - _loss(minus, gt, lam)[2]) / (2 * h)
                assert analytic[t, c] == pytest.approx(numeric, abs=1e-5)
