"""Tests for main-object selection and the per-frame REINFORCE references."""

import numpy as np
import pytest

from viewpilot.agent import ModelDims, PilotModel, initial_state, pilot_step
from viewpilot.diffcore import softmax
from viewpilot.errors import InvalidInput
from viewpilot.geometry import ViewingAngle
from viewpilot.observation import SceneConfig, synth_scene
from viewpilot.selector import SelectorNetwork
from viewpilot.training import WindowBatch, rollout_window

# ---------------------------------------------------------------------------
# Per-frame references for the batched sampling and policy-gradient upstream
# of ``training.rollout_window`` and ``training.policy_upstream``, which
# tests/test_training.py compares against them.
# ---------------------------------------------------------------------------


def sample_indices(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF sampling along the last axis of a (B, N) probability array."""
    cum = np.cumsum(probs, axis=-1)
    u = rng.random(probs.shape[0])
    idx = (cum <= u[:, None]).sum(axis=-1)
    return np.minimum(idx, probs.shape[-1] - 1)


def grad_log_softmax(probs: np.ndarray, index: int) -> np.ndarray:
    """d log S(index) / d logits = onehot(index) - S."""
    g = -np.asarray(probs, dtype=np.float64).copy()
    g[index] += 1.0
    return g


def policy_gradient_contribution(probs, indices, rewards, baseline: bool = False) -> np.ndarray:
    """REINFORCE ascent gradient on the logits for one frame:
    (1/Q) * sum_q r_q * (onehot(i_q) - S), each r_q centered by the mean
    of the Q rewards when ``baseline`` is on."""
    probs = np.asarray(probs, dtype=np.float64)
    indices = list(indices)
    rewards = np.asarray(list(rewards), dtype=np.float64)
    if len(indices) != len(rewards) or len(indices) == 0:
        raise InvalidInput("need matching, non-empty sample indices and rewards")
    if not np.all(np.isfinite(rewards)):
        raise InvalidInput("rewards must be finite")
    if baseline:
        rewards = rewards - rewards.mean()
    grad = np.zeros_like(probs)
    for i, r in zip(indices, rewards):
        if not 0 <= i < probs.shape[-1]:
            raise InvalidInput(f"sample index {i} out of range for {probs.shape[-1]} slots")
        grad += r * grad_log_softmax(probs, i)
    return grad / len(indices)


def _net(input_dim=12, hidden=6, slots=4, seed=0):
    return SelectorNetwork(input_dim, hidden, slots, np.random.default_rng(seed))


class TestSelectorForward:
    """``SelectorNetwork.unroll``, the selector's forward over a sequence."""

    def test_probabilities_sum_to_one(self):
        _, probs = _net().unroll(np.random.default_rng(1).normal(size=(2, 20, 12)))
        assert probs.shape == (2, 20, 4)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
        assert np.all(probs >= 0)

    def test_zero_weights_give_uniform(self):
        net = _net()
        for p in net.head.params():
            p.values[...] = 0.0
        _, probs = net.unroll(np.ones((1, 3, 12)))
        np.testing.assert_allclose(probs, 0.25, atol=1e-15)

    def test_deterministic(self):
        net = _net()
        xs = np.linspace(0, 1, 36).reshape(1, 3, 12)
        h1, p1 = net.unroll(xs)
        h2, p2 = net.unroll(xs)
        np.testing.assert_array_equal(h1, h2)
        np.testing.assert_array_equal(p1, p2)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            _net().unroll(np.ones((1, 3, 5)))


GREEDY_DIMS = ModelDims(4, 4, 4, selector_hidden=2, regressor_hidden=2)
GREEDY_SCENE = SceneConfig(frames=6, objects=3, slots=4, appearance_dim=4, motion_bins=4)
GREEDY_EPISODE = synth_scene(GREEDY_SCENE, 0)


def _greedy_picks(logits) -> tuple[list[int], list[int]]:
    """The slots ``pilot_step`` and a rollout forced to the argmax of
    ``selector.unroll`` (as the agent method picks them) select on
    each frame when the selector's logits are ``logits`` whatever its input:
    the cell holds h = tanh(atanh(0.5)) in both units, and both entries of
    head row i are logits[i]."""
    model = PilotModel(GREEDY_DIMS, np.random.default_rng(0))
    cell = model.selector.cell
    cell.w_xh.values[...] = cell.w_hh.values[...] = 0.0
    cell.b.values[...] = np.arctanh(0.5)
    model.selector.head.w.values[...] = np.asarray(logits, dtype=float)[:, None]
    ep = GREEDY_EPISODE
    state, online = initial_state(model, ViewingAngle(*ep.gt_track[0])), []
    for frame in ep.frames:
        _, index, state = pilot_step(frame, state, model)
        online.append(index)
    batch = WindowBatch(ep.flat[None], ep.positions[None], ep.motions[None], ep.gt_track[None])
    picks = np.argmax(model.selector.unroll(batch.flat)[1], axis=-1)
    return online, rollout_window(model, batch, forced_indices=picks).indices[0, :, 0].tolist()


class TestSelectGreedy:
    """Greedy selection, online and batched, is the argmax of the selector's
    distribution with ties to the lowest slot."""

    def test_argmax(self):
        assert _greedy_picks([0.1, 0.7, 0.2, 0.0]) == ([1] * 6, [1] * 6)

    def test_tie_breaks_to_lowest_index(self):
        assert _greedy_picks([0.0, 0.5, 0.5, 0.0]) == ([1] * 6, [1] * 6)
        assert _greedy_picks([0.0] * 4) == ([0] * 6, [0] * 6)

    def test_invariant_to_monotone_logit_transforms(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            logits = rng.normal(size=4) * 3
            base = int(np.argmax(softmax(logits)))
            for transform in (lambda z: 2 * z + 1, np.exp, lambda z: z**3 + z):
                assert _greedy_picks(transform(logits)) == ([base] * 6, [base] * 6)


class TestSelectSample:
    def test_degenerate_distribution(self):
        rng = np.random.default_rng(3)
        draws = sample_indices(np.tile([1.0, 0.0, 0.0], (100, 1)), rng)
        np.testing.assert_array_equal(draws, np.zeros(100))

    def test_empirical_frequencies(self):
        rng = np.random.default_rng(4)
        draws = sample_indices(np.tile([0.25, 0.75], (100_000, 1)), rng)
        assert draws.mean() == pytest.approx(0.75, abs=0.01)

    def test_deterministic_given_seed(self):
        dist = np.tile([0.2, 0.3, 0.5], (50, 1))
        seq_a = sample_indices(dist, np.random.default_rng(5))
        seq_b = sample_indices(dist, np.random.default_rng(5))
        np.testing.assert_array_equal(seq_a, seq_b)


class TestPolicyGradient:
    def test_zero_rewards_give_zero_gradient(self):
        probs = softmax(np.array([0.1, 0.2, 0.3]))
        grad = policy_gradient_contribution(probs, [0, 1, 2], [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(grad, np.zeros(3))

    def test_baseline_cancels_identical_rewards(self):
        probs = softmax(np.array([1.0, -1.0, 0.5]))
        grad = policy_gradient_contribution(probs, [2, 0, 1], [0.7, 0.7, 0.7], baseline=True)
        np.testing.assert_allclose(grad, np.zeros(3), atol=1e-15)

    def test_log_softmax_gradient_identity_vs_finite_differences(self):
        logits = np.array([0.4, -0.3, 1.1])
        probs = softmax(logits)
        for i in range(3):
            analytic = grad_log_softmax(probs, i)
            h = 1e-6
            for j in range(3):
                zp, zm = logits.copy(), logits.copy()
                zp[j] += h
                zm[j] -= h
                numeric = (np.log(softmax(zp)[i]) - np.log(softmax(zm)[i])) / (2 * h)
                assert analytic[j] == pytest.approx(numeric, abs=1e-8)

    def test_sampled_estimator_matches_exhaustive_expectation(self):
        # N=2: enumerate both outcomes exactly and compare with the mean of
        # single-sample estimates over many draws (law of large numbers).
        probs = softmax(np.array([0.6, -0.2]))
        rewards = np.array([0.9, -0.4])
        exact = sum(probs[i] * rewards[i] * grad_log_softmax(probs, i) for i in range(2))
        rng = np.random.default_rng(6)
        q = 10_000
        samples = np.empty((q, 2))
        for s, i in enumerate(sample_indices(np.tile(probs, (q, 1)), rng)):
            samples[s] = policy_gradient_contribution(probs, [i], [rewards[i]])
        se = samples.std(axis=0, ddof=1) / np.sqrt(q)
        assert np.all(np.abs(samples.mean(axis=0) - exact) <= 3 * se)

    def test_index_out_of_range(self):
        with pytest.raises(InvalidInput):
            policy_gradient_contribution(np.array([0.5, 0.5]), [2], [1.0])

    def test_q_averaging(self):
        probs = softmax(np.array([0.0, 0.0]))
        one = policy_gradient_contribution(probs, [0], [1.0])
        two = policy_gradient_contribution(probs, [0, 0], [1.0, 1.0])
        np.testing.assert_allclose(one, two, atol=1e-15)
