"""Steering-action refinement and the regression + smoothness training loss.

The regressor consumes the selected object's motion histogram concatenated
with the naive follow-the-object offset, runs one tanh RNN step, and its
bias-free (2, R) head ``regressor.head.w`` maps the hidden state to a 2-D
steering action. :meth:`RegressorNetwork.steer` is the one B=1 steering loop
(``agent.pilot_episode`` and ``pilot_step``); batches call
``TanhRnnCell.step`` in ``training._steer``, which at B=1 takes 3.7x
``steer``'s time per frame (16.25 vs 4.36 us), and ``_branch_rewards``.
The loss over a predicted trajectory is the summed wrap-aware distance to
ground truth plus lambda times the summed change in viewing-angle velocity.
"""

from __future__ import annotations

import numpy as np

from .diffcore import ParamTensor, TanhRnnCell, uniform_init
from .geometry import angle_offsets, clamp_elevation, signed_azimuth_delta, velocity_array, wrap_azimuth


ACTION_GAIN = 8.0  # init scale of the steering head; outputs are degrees/frame
OFFSET_SCALE = 30.0  # degrees per unit of the follow-offset input, so tanh sees O(1) values


class RegressorNetwork:
    """tanh RNN over (motion, naive offset) with a bias-free 2-D linear head."""

    def __init__(self, motion_bins: int, hidden_dim: int, rng: np.random.Generator):
        self.hidden_dim = hidden_dim
        self.cell = TanhRnnCell("regressor.cell", motion_bins + 2, hidden_dim, rng)
        init = ACTION_GAIN * uniform_init(rng, (2, hidden_dim), hidden_dim)
        self.head = ParamTensor("regressor.head.w", init)

    def params(self):
        return self.cell.params() + [self.head]

    def initial_state(self) -> np.ndarray:
        return np.zeros(self.hidden_dim)

    def steer(self, xs: np.ndarray, targets, az: float, el: float, mu: np.ndarray):
        """Fold the steering step over frames from the view (az, el) and the
        state ``mu``: (each frame's landed (az, el), the last state). Row t of
        ``xs`` (T, k+2) holds the picked slot's motions; the step writes the
        offset toward ``targets[t]`` (az, el) into its last two entries. It is
        ``TanhRnnCell.step`` inline (a call adds a third to its time), then
        ``training._steer``'s head and landing, so at B=1 its floats."""
        w_xh, w_hh, bias = self.cell.w_xh.values.T, self.cell.w_hh.values.T, self.cell.b.values
        w_r, views = self.head.values.T, []
        for x, (target_az, target_el) in zip(xs, targets):
            x[-2] = signed_azimuth_delta(target_az - az) / OFFSET_SCALE
            x[-1] = (target_el - el) / OFFSET_SCALE
            pre = x.dot(w_xh)
            pre += mu.dot(w_hh)
            pre += bias
            mu = np.tanh(pre, out=pre)
            d_az, d_el = mu.dot(w_r).tolist()
            az, el = wrap_azimuth(az + d_az), clamp_elevation(el + d_el)
            views.append((az, el))
        return views, mu


def _unit(vec: np.ndarray) -> np.ndarray:
    """vec / ||vec|| rows, with zero rows kept zero (subgradient choice)."""
    norm = np.linalg.norm(vec, axis=-1, keepdims=True)
    return np.divide(vec, norm, out=np.zeros_like(vec), where=norm > 0.0)


def loss_terms(pred: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(regression, smoothness) sums for (B, T, 2) batches; returns (B,) arrays."""
    reg = np.linalg.norm(angle_offsets(pred, gt), axis=-1).sum(axis=-1)
    v = velocity_array(pred)
    smo = np.linalg.norm(np.diff(v, axis=-2), axis=-1).sum(axis=-1)
    return reg, smo


def loss_grad(pred: np.ndarray, gt: np.ndarray, lam: float) -> np.ndarray:
    """Analytic d(regression + lam * smoothness)/d pred for (B, T, 2) batches.

    Uses the zero subgradient at the norms' kinks. Wrapping reduces
    offsets by constants, so its derivative is 1 almost everywhere.
    """
    grad = _unit(angle_offsets(pred, gt))
    w_hat = _unit(np.diff(velocity_array(pred), axis=-2))  # (B, T-1, 2)
    dv = np.zeros_like(pred)  # dLoss/dv_t
    dv[..., 1:, :] += w_hat
    dv[..., :-1, :] -= w_hat
    # v_t = pred_t - pred_{t-1} for t >= 1; v_0 is a constant
    dsmooth = np.zeros_like(pred)
    dsmooth[..., 1:, :] += dv[..., 1:, :]
    dsmooth[..., :-1, :] -= dv[..., 1:, :]
    return grad + lam * dsmooth
