"""Main-object selection: a recurrent network over frame observations with a
softmax head, plus greedy/sampled selection and the REINFORCE gradient term.
"""

from __future__ import annotations

import numpy as np

from .diffcore import Linear, TanhRnnCell, softmax
from .errors import InvalidInput


class SelectorNetwork:
    """tanh RNN + bias-free softmax head producing a distribution over slots."""

    def __init__(self, input_dim: int, hidden_dim: int, n_slots: int, rng: np.random.Generator):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.n_slots = n_slots
        self.cell = TanhRnnCell("selector.cell", input_dim, hidden_dim, rng)
        self.head = Linear("selector.head", hidden_dim, n_slots, rng)

    def params(self):
        return self.cell.params() + self.head.params()

    def initial_state(self, batch: int | None = None) -> np.ndarray:
        if batch is None:
            return np.zeros(self.hidden_dim)
        return np.zeros((batch, self.hidden_dim))

    def forward(self, obs_flat: np.ndarray, h_prev: np.ndarray):
        """One recurrent step; returns (new hidden state, selection probabilities)."""
        h = self.cell.step(obs_flat, h_prev)
        return h, softmax(self.head.apply(h))

    def unroll(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hidden states (B, T+1, H) and selection distributions (B, T, N)
        over a (B, T, D) observation sequence, from a zero initial state.

        The selector never sees the chosen view, so its whole recurrence
        can run ahead of steering; the head and softmax run once over all
        B*T states.
        """
        hs = self.cell.unroll(flat)
        logits = self.head.apply(hs[:, 1:].reshape(-1, self.hidden_dim))
        return hs, softmax(logits.reshape(flat.shape[0], flat.shape[1], self.n_slots))


def select_greedy(probs: np.ndarray) -> int:
    """Index of the highest probability; ties go to the lowest index."""
    return int(np.argmax(probs))


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


def policy_gradient_contribution(
    probs: np.ndarray,
    indices,
    rewards,
    baseline: bool = False,
) -> np.ndarray:
    """REINFORCE ascent gradient on the logits for one frame:
    (1/Q) * sum_q r_q * (onehot(i_q) - S).

    With ``baseline`` enabled each r_q is centered by the mean reward of
    the Q samples. The caller feeds the (negated) result into the backward
    pass as the upstream signal at the softmax.
    """
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
