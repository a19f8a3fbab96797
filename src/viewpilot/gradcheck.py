"""Finite-difference verification of every hand-derived backward pass.

The joint rollout's discrete selections are pinned and the REINFORCE
rewards frozen at their nominal values, which turns the training objective
into a deterministic scalar function of the parameters that central
differences can probe directly. That function is the sum of two terms: a
policy term that reads only the selector and a steering term that reads
only the regressor. Each term is evaluated once at the nominal parameters;
a probe of one network's parameter then re-evaluates only that network's
term and adds the other term's nominal value, which is the same float sum
as re-evaluating both.

``diffcore.gradient_check`` evaluates the probes of one parameter tensor
together: it installs a (P, *shape) stack of probe values as the tensor's
values and the loss returns all P losses from one forward through the
training kernels (``TanhRnnCell.unroll``, the selector head and softmax,
``training._steer``, which steps the regressor with ``TanhRnnCell.step``,
and ``loss_terms``), which take weights with leading probe axes. The
analytic side is ``training.backward_window``, whose reverse loops run
``TanhRnnCell.backward_step``. Probes go in blocks whose stack holds at most
``diffcore._PROBE_BLOCK_ENTRIES`` entries, which bounds the temporaries
(the selector's input weights at ``CHECK_DIMS`` take 31 blocks), and every
block of one tensor is written into the same buffer.
The results are bit-identical to evaluating each probe alone: every probe
is its own slice of each stacked array, each stacked matmul runs the same
per-slice GEMM as the 2-D call, and every reduction runs along contiguous
trailing axes, so each slice is summed in the order the 2-D forward sums
it. ``tests/test_training.py`` compares every mode against a per-entry
loop that calls the loss once per probe.
"""

from __future__ import annotations

import numpy as np

from .agent import ModelDims, PilotModel
from .diffcore import DEFAULT_GRADCHECK_TOLERANCE, GradCheckResult, ParamTensor, gradient_check
from .errors import InvalidInput
from .observation import SceneConfig, episode_arrays, synth_scene
from .regressor import loss_grad, loss_terms
from .training import Window, WindowBatch, backward_window, pack_windows, rollout_window, surrogate_loss

CHECK_DIMS = ModelDims(
    appearance_dim=8, motion_bins=12, slots=4, selector_hidden=16, regressor_hidden=8
)
CHECK_FRAMES = 10
CHECK_LAMBDA = 10.0  # smoothness weight of the trajectory loss in every check
_MODE_WEIGHTS = {
    "selector": (0.0, 1.0),  # (supervised weight, policy-gradient weight)
    "regressor": (1.0, 0.0),
    "joint": (1.0, 1.0),
}
MODES = tuple(_MODE_WEIGHTS)


def make_check_batch(
    dims: ModelDims, frames: int, seed: int
) -> tuple[WindowBatch, np.ndarray]:
    """A single-window batch from a small synthetic scene, plus a random
    forced-selection index per frame."""
    cfg = SceneConfig(
        frames=frames,
        objects=dims.slots - 1,
        slots=dims.slots,
        appearance_dim=dims.appearance_dim,
        motion_bins=dims.motion_bins,
        elevation_limit=40.0,
    )
    batch = pack_windows([episode_arrays(synth_scene(cfg, [seed, 101]))], [Window(0, 0, frames)])
    forced = np.random.default_rng([seed, 102]).integers(dims.slots, size=(1, frames))
    return batch, forced


def check_model(
    mode: str,
    seed: int,
    dims: ModelDims = CHECK_DIMS,
    frames: int = CHECK_FRAMES,
    tolerance: float = DEFAULT_GRADCHECK_TOLERANCE,
    corrupt: str | None = None,
) -> GradCheckResult:
    """Gradient-check one training path ("selector", "regressor", or "joint").

    ``corrupt`` names a parameter whose analytic gradient is perturbed
    before comparison; the check must then fail (negative control).
    """
    if mode not in _MODE_WEIGHTS:
        raise InvalidInput(f"unknown gradcheck mode {mode!r}; expected one of {MODES}")
    sup_w, pg_w = _MODE_WEIGHTS[mode]
    model = PilotModel(dims, np.random.default_rng([seed, 100]))
    batch, forced = make_check_batch(dims, frames, seed)

    tape = rollout_window(model, batch, forced_indices=forced)
    frozen = tape.rewards.copy()
    for p in model.params():
        p.zero_grad()
    backward_window(model, tape, CHECK_LAMBDA, pg_weight=pg_w, sup_weight=sup_w)

    def loss(pg_weight, sup_weight):
        return surrogate_loss(model, batch, forced, frozen, CHECK_LAMBDA, pg_weight, sup_weight)

    pg_nominal, sup_nominal = loss(pg_w, 0.0), loss(0.0, sup_w)
    groups = [  # each network's probes re-evaluate only that network's term
        (model.selector.params(), lambda param, values: loss(pg_w, 0.0) + sup_nominal),
        (model.regressor.params(), lambda param, values: pg_nominal + loss(0.0, sup_w)),
    ]
    groups = [group for group, weight in zip(groups, (pg_w, sup_w)) if weight != 0.0]
    if corrupt is not None:
        chosen = [p for params, _ in groups for p in params if p.name == corrupt]
        if not chosen:
            raise InvalidInput(f"no parameter named {corrupt!r} in mode {mode!r}")
        chosen[0].grad += 0.5 * (1.0 + np.abs(chosen[0].grad))
    errors = {}
    for params, loss_fn in groups:
        errors.update(gradient_check(loss_fn, params, tolerance=tolerance).max_rel_error)
    return GradCheckResult(errors, tolerance)


def check_trajectory_loss(
    seed: int, frames: int = 12, tolerance: float = DEFAULT_GRADCHECK_TOLERANCE
) -> GradCheckResult:
    """Finite-difference check of the trajectory-loss gradient itself."""
    rng = np.random.default_rng([seed, 103])
    pred = np.column_stack([rng.uniform(0, 360, frames), rng.uniform(-50, 50, frames)])
    gt = pred + rng.normal(scale=5.0, size=(frames, 2))
    tensor = ParamTensor("trajectory.pred", pred)
    tensor.grad[...] = loss_grad(tensor.values[None], gt[None], CHECK_LAMBDA)[0]

    def loss_fn(param, values):  # all 2 * frames * 2 probes as one batch
        reg, smo = loss_terms(values, gt)
        return reg + CHECK_LAMBDA * smo

    return gradient_check(loss_fn, [tensor], tolerance=tolerance)
