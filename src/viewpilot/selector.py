"""Main-object selection: a recurrent network over frame observations with a
softmax head. Its step is ``diffcore.TanhRnnCell.step`` (one frame, in
``agent.pilot_step``) or ``TanhRnnCell.unroll`` (a whole sequence, here).
Greedy selection is the argmax (``agent.pilot_step`` and ``pilot_episode``,
which then steer through ``RegressorNetwork.steer``, the one B=1 steering
loop); sampled selection and the REINFORCE gradient run batched in
``training``, whose ``_steer`` takes 3.7x ``steer``'s time per frame at B=1.
"""

from __future__ import annotations

import numpy as np

from .diffcore import Linear, TanhRnnCell, softmax


class SelectorNetwork:
    """tanh RNN + bias-free softmax head producing a distribution over slots."""

    def __init__(self, input_dim: int, hidden_dim: int, n_slots: int, rng: np.random.Generator):
        self.hidden_dim = hidden_dim
        self.n_slots = n_slots
        self.cell = TanhRnnCell("selector.cell", input_dim, hidden_dim, rng)
        self.head = Linear("selector.head", hidden_dim, n_slots, rng)

    def params(self):
        return self.cell.params() + self.head.params()

    def initial_state(self) -> np.ndarray:
        return np.zeros(self.hidden_dim)

    def unroll(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hidden states (..., B, T+1, H) and selection distributions
        (..., B, T, N) over a (B, T, D) sequence, from a zero initial state.

        The selector never sees the chosen view, so its whole recurrence
        can run ahead of steering; the head and softmax run once over all
        B*T states.
        """
        hs = self.cell.unroll(flat)
        states = hs[..., 1:, :].reshape(hs.shape[:-3] + (-1, self.hidden_dim))
        logits = states @ self.head.w.values.swapaxes(-1, -2)
        return hs, softmax(logits.reshape(logits.shape[:-2] + flat.shape[:2] + (self.n_slots,)))
