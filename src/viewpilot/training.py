"""Joint training: per-frame rewards, sampled rollouts, the hybrid of
supervised trajectory-loss gradients (through the regressor) and REINFORCE
policy gradients (through the selector softmax), SGD epochs over shuffled
sequence windows, checkpoints, and a metrics log.

The rollout is batched over windows: every array carries a leading window
dimension B. Hidden states reset to zero at window boundaries and each
window's viewing angle starts at its first frame's ground truth.

The selector reads only the detector observations, never the chosen view, so
its whole recurrence runs before the steering loop: one GEMM projects every
frame's input, each step adds only the recurrent term, and the head, softmax
and sampling run once over (B, T, N). Only the steering regressor is
sequential over frames, because each offset input depends on the previous
viewing angle: ``_steer`` calls ``TanhRnnCell.step`` once per frame;
``RegressorNetwork.steer``, the one B=1 steering loop, folds it inline,
since ``_steer`` takes 3.7x its time per frame at B=1. The extra REINFORCE
samples branch off states that are known once that loop is done, so their
rewards come from one ``TanhRnnCell.step`` call afterwards. The backward
pass runs the regressor and selector chains as two reverse loops that carry
only their recurrences through ``TanhRnnCell.backward_step``, and
accumulates weight gradients with one GEMM over all B*T steps. The
``RolloutTape`` stores the forward as batch-major (B, T[+1], .) arrays.

Per-step products follow ``diffcore``'s rule for ``ndarray.dot``, except
one strided weight slice whose single-row ``@`` product ``dot`` does not
reproduce.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .agent import ModelDims, PilotModel, save_model_checkpoint, load_model_checkpoint
from .diffcore import LrSchedule, check_field_types, require_positive
from .errors import ConfigError, InvalidInput, NumericsError, ParseError, StateError, VersionError
from .geometry import angle_offsets, land_angles
from .observation import Episode, episode_arrays
from .regressor import OFFSET_SCALE, loss_grad, loss_terms

DEFAULT_ETA = 40.9


def reward_array(pred: np.ndarray, gt: np.ndarray, eta: float) -> np.ndarray:
    """Piecewise-linear focus reward in [-1, 1] for (..., 2) angle arrays.

    1 at zero distance, falling linearly to 0 at ``eta`` degrees, and -1
    beyond ``eta`` (the predicted view no longer covers the target).
    """
    off = angle_offsets(pred, gt)
    dist = np.hypot(off[..., 0], off[..., 1])
    return np.where(dist <= eta, 1.0 - dist / eta, -1.0)


@dataclass(frozen=True)
class TrainConfig:
    """Training settings; the defaults are configs/reference.json's."""

    batch_size: int = 10
    max_epochs: int = 100
    seq_len: int = 50
    smooth_lambda: float = 3.0
    lr_initial: float = 0.02
    lr_decay: float = 0.9
    lr_period: int = 50
    q_samples: int = 2
    eta: float = DEFAULT_ETA
    seed: int = 7
    baseline: bool = True
    grad_clip: float = 5.0  # 0 disables clipping
    pg_weight: float = 7.5
    # With slot scaling on, the policy-gradient weight is pg_weight * N:
    # the chance of sampling any fixed slot falls as 1/N, so the scaling
    # keeps the selector's expected early learning speed independent of
    # the slot count. Off, the hybrid sum is flat.
    pg_slot_scaling: bool = True
    checkpoint_interval: int = 50

    def __post_init__(self):
        check_field_types(self)
        if min(self.batch_size, self.q_samples, self.checkpoint_interval) < 1 or self.seq_len < 2:
            raise InvalidInput("batch_size, q_samples, checkpoint_interval must be >= 1, seq_len >= 2")
        if self.q_samples == 1 and self.baseline:  # r - mean(r) is 0 for a single sample
            raise InvalidInput("the mean reward baseline needs q_samples >= 2, got 1")
        for name in ("max_epochs", "smooth_lambda", "grad_clip", "pg_weight", "seed"):
            require_positive(name, getattr(self, name), allow_zero=True)  # numpy refuses seed < 0
        for name in ("eta", "lr_initial", "lr_decay", "lr_period"):
            require_positive(name, getattr(self, name))

    def schedule(self) -> LrSchedule:
        return LrSchedule(self.lr_initial, self.lr_decay, self.lr_period)


# ---------------------------------------------------------------------------
# Batched rollout
# ---------------------------------------------------------------------------


@dataclass
class WindowBatch:
    """A batch of same-length episode windows packed into arrays;
    :func:`pack_windows` makes ``motions`` a view of ``flat``'s motion
    block, as ``Episode.motions`` is of the episode's."""

    flat: np.ndarray  # (B, T, D)
    positions: np.ndarray  # (B, T, N, 2)
    motions: np.ndarray  # (B, T, N, k)
    gt: np.ndarray  # (B, T, 2)

    @property
    def size(self) -> int:
        return self.flat.shape[0]

    @property
    def frames(self) -> int:
        return self.flat.shape[1]


def _follow_offset(pos: np.ndarray, angle: np.ndarray, out: np.ndarray) -> None:
    """The regressor's offset input into ``out``: ``geometry.angle_offsets``
    (pos - angle, azimuth reduced in place) over OFFSET_SCALE."""
    np.divide(angle_offsets(pos, angle), OFFSET_SCALE, out=out)


@dataclass
class RolloutTape:
    """Everything the backward pass needs from one batched forward rollout.

    Arrays are batch-major: B windows, T frames, Q reward samples per frame,
    and state arrays carry T+1 entries with the initial state at index 0.
    The selector entries are complete before steering starts, since the
    selector never sees the chosen view; its input is ``batch.flat``. The
    regressor entries belong to sample q=0, the one that drives the
    rollout, and are batch-major views of the time-major arrays the
    steering loop fills.
    """

    batch: WindowBatch
    hs: np.ndarray  # (B, T+1, H) selector hidden states
    probs: np.ndarray  # (B, T, N) selection distributions
    indices: np.ndarray  # (B, T, Q) sampled/forced slot indices
    rewards: np.ndarray  # (B, T, Q) per-sample rewards
    xrs: np.ndarray  # (B, T, k+2) regressor inputs: motion, offset / OFFSET_SCALE
    mus: np.ndarray  # (B, T+1, R) regressor hidden states
    el_free: np.ndarray  # (B, T) bool: elevation not clamped at this step
    pred: np.ndarray  # (B, T, 2) rolled-out viewing angles
    consumed: bool = False


def _steer(model: PilotModel, batch: WindowBatch, selected: np.ndarray):
    """Roll the steering regressor over the selections ``selected`` (B, T).

    Each step is ``TanhRnnCell.step`` into preallocated buffers, then the
    head (``dot``, or ``np.matmul`` under probe axes) and landing in
    ``RegressorNetwork.steer``'s order; at B=1 the angles are its floats.
    Returns time-major arrays: regressor inputs (T, ..., B, k+2), hidden
    states (T+1, ..., B, R), unclamped angles (T, ..., B, 2) and viewing
    angles (T+1, ..., B, 2), state arrays with the initial state first and
    "..." the weights' leading probe axes (none for 2-D weights)."""
    b, t_total = selected.shape
    k = batch.motions.shape[3]
    cell, w_r = model.regressor.cell, model.regressor.head.w.values.swapaxes(-1, -2)
    lead = np.broadcast_shapes(
        w_r.shape[:-2], cell.w_xh.shape[:-2], cell.w_hh.shape[:-2], cell.b.shape[:-1]
    )
    pick = (np.arange(b), np.arange(t_total)[:, None], selected.T)
    pos = batch.positions[pick]
    xr = np.empty((t_total,) + lead + (b, k + 2))
    xr[..., :k] = batch.motions[pick].reshape((t_total,) + (1,) * len(lead) + (b, k))
    mus = np.zeros((t_total + 1,) + lead + (b, cell.hidden_dim))
    raw = np.empty(xr.shape[:-1] + (2,))
    angles = np.empty(mus.shape[:-1] + (2,))
    angles[0] = batch.gt[:, 0]
    head = np.matmul if lead else np.ndarray.dot
    for t in range(t_total):
        _follow_offset(pos[t], angles[t], xr[t, ..., k:])
        mu = cell.step(xr[t], mus[t], mus[t + 1])
        np.add(angles[t], head(mu, w_r), out=raw[t])
        land_angles(raw[t], angles[t + 1])
    return xr, mus, raw, angles


def _branch_rewards(
    model: PilotModel, batch: WindowBatch, selected: np.ndarray, angles: np.ndarray,
    mus: np.ndarray, eta: float,
) -> np.ndarray:
    """Rewards (B, T, S) of one steering step per extra sample ``selected``
    (B, T, S), each branching off the rollout's state entering its frame:
    time-major ``angles`` (T, B, 2) and ``mus`` (T, B, R). No branch feeds
    another, so all of them run as one ``TanhRnnCell.step`` over B*T*S rows."""
    b, t_total, s = selected.shape
    k, cell = batch.motions.shape[3], model.regressor.cell
    pick = (np.arange(b)[:, None, None], np.arange(t_total)[:, None], selected)
    prev = angles.transpose(1, 0, 2)[:, :, None]
    x = np.empty((b, t_total, s, k + 2))
    x[..., :k] = batch.motions[pick]
    _follow_offset(batch.positions[pick], prev, x[..., k:])
    mu_prev = np.broadcast_to(mus.transpose(1, 0, 2)[:, :, None], (b, t_total, s, mus.shape[2]))
    mu = cell.step(x.reshape(-1, k + 2), mu_prev.reshape(-1, cell.hidden_dim))
    raw = prev + (mu @ model.regressor.head.w.values.T).reshape(b, t_total, s, 2)
    return reward_array(land_angles(raw, raw), batch.gt[:, :, None], eta)


def rollout_window(
    model: PilotModel,
    batch: WindowBatch,
    rng: np.random.Generator | None = None,
    forced_indices: np.ndarray | None = None,
    q_samples: int = 1,
    eta: float = DEFAULT_ETA,
) -> RolloutTape:
    """Run the full agent over a window batch with sampled (default) or
    forced selection, recording a tape for the backward pass.

    The viewing angle starts at each window's first ground-truth angle.
    Sample q=0 drives the rollout; extra samples (q >= 1) branch off the
    current state for their reward and are then discarded.

    Every selection is made before steering starts. The uniforms come from
    one ``rng.random((T, draws, B))`` call, the same stream as one
    inverse-CDF draw per frame and sample, in that order, over the B windows.
    """
    b, t_total = batch.size, batch.frames
    n = batch.positions.shape[2]
    hs, probs = model.selector.unroll(batch.flat)

    indices = np.empty((b, t_total, q_samples), dtype=np.int64)
    draws = q_samples
    if forced_indices is not None:
        forced = np.asarray(forced_indices, dtype=np.int64)
        if forced.shape != (b, t_total):
            raise InvalidInput(f"forced indices must be {(b, t_total)}, got {forced.shape}")
        indices[..., 0] = forced
        draws -= 1
    if draws > 0:
        if rng is None:
            raise InvalidInput("sampled selection requires an rng")
        u = rng.random((t_total, draws, b)).transpose(2, 0, 1)
        cum = np.cumsum(probs, axis=-1)
        sampled = (cum[:, :, None, :] <= u[..., None]).sum(axis=-1)
        indices[..., q_samples - draws :] = np.minimum(sampled, n - 1)
    if np.any(indices < 0) or np.any(indices >= n):
        raise InvalidInput("selection index out of range")

    xr, mus, raw, angles = _steer(model, batch, indices[..., 0])
    pred = angles[1:].transpose(1, 0, 2)
    rewards = np.empty((b, t_total, q_samples))
    rewards[..., 0] = reward_array(pred, batch.gt, eta)
    if q_samples > 1:
        rewards[..., 1:] = _branch_rewards(model, batch, indices[..., 1:], angles[:-1], mus[:-1], eta)
    return RolloutTape(
        batch=batch,
        hs=hs,
        probs=probs,
        indices=indices,
        rewards=rewards,
        xrs=xr.transpose(1, 0, 2),
        mus=mus.transpose(1, 0, 2),
        el_free=np.abs(raw[..., 1].T) < 90.0,
        pred=pred,
    )


def rollout_loss(tape: RolloutTape) -> tuple[float, float]:
    """Mean-over-windows (regression, smoothness) sums for a tape."""
    reg, smo = loss_terms(tape.pred, tape.batch.gt)
    return float(reg.mean()), float(smo.mean())


def policy_upstream(tape: RolloutTape, pg_weight: float, baseline: bool) -> np.ndarray:
    """Descent-direction upstream gradients (B, T, N) at the selector logits.

    REINFORCE ascends the expected reward, so the loss-gradient upstream is
    the negated average of r_q * (onehot(i_q) - S) over the Q samples,
    scaled by pg_weight and the 1/B batch mean.
    """
    b, _, q = tape.rewards.shape
    r = tape.rewards
    if baseline:
        r = r - r.mean(axis=2, keepdims=True)
    onehot = tape.indices[..., None] == np.arange(tape.probs.shape[2])
    return (-pg_weight / (q * b)) * (r[..., None] * (onehot - tape.probs[:, :, None])).sum(axis=2)


def backward_window(
    model: PilotModel,
    tape: RolloutTape,
    lam: float,
    pg_weight: float = 1.0,
    sup_weight: float = 1.0,
    baseline: bool = False,
) -> None:
    """Accumulate hybrid parameter gradients for one recorded rollout.

    The supervised trajectory loss backpropagates through the regressor
    recurrence and the viewing-angle chain; the policy-gradient term enters
    at the selector softmax and backpropagates through the selector
    recurrence. Gradients are for the batch-mean objective.

    The two chains share no state, so each runs its own reverse loop that
    carries only the recurrence; weight grads then come from one GEMM over
    all B*T steps.
    """
    if tape.consumed:
        raise StateError("rollout tape already consumed")
    tape.consumed = True
    b, t_total = tape.batch.size, tape.batch.frames
    k = tape.batch.motions.shape[3]
    sel, reg = model.selector, model.regressor

    # Regressor / viewing-angle chain, time-major. The offset input depends
    # on the previous angle, so its gradient joins the angle carry.
    dl_loss = (loss_grad(tape.pred, tape.batch.gt, lam) * (sup_weight / b)).transpose(1, 0, 2)
    gate = np.ones_like(dl_loss)
    gate[..., 1] = tape.el_free.T
    mus = tape.mus.transpose(1, 0, 2)
    deriv = 1.0 - mus[1:] * mus[1:]
    w_r, w_off = reg.head.w.values, reg.cell.w_xh.values[:, k:]
    ddelta = np.empty_like(dl_loss)
    dpre = np.empty_like(deriv)
    carry_l = np.zeros((b, 2))
    carry_mu = np.zeros((b, reg.hidden_dim))
    for t in reversed(range(t_total)):
        g = np.add(dl_loss[t], carry_l, out=ddelta[t])
        g *= gate[t]
        d = np.add(g.dot(w_r), carry_mu, out=dpre[t])
        carry_mu = reg.cell.backward_step(d, deriv[t])  # d is now dLoss/dpre
        # Through the half-turn input scaling. At B=1, ``@`` on the strided
        # slice w_off runs numpy's own loop, which ``dot`` (BLAS) does not
        # reproduce bit for bit, so this product stays on ``@``.
        carry_l = g - (d @ w_off) / OFFSET_SCALE
    reg.head.w.grad += ddelta.reshape(-1, 2).T @ mus[1:].reshape(-1, reg.hidden_dim)
    reg.cell.accumulate_grads(dpre, tape.xrs.transpose(1, 0, 2), mus[:-1])

    # Selector chain (policy gradient only; selection itself is discrete).
    u = policy_upstream(tape, pg_weight, baseline).reshape(b * t_total, -1)
    dh = sel.head.backward(u, tape.hs[:, 1:].reshape(b * t_total, -1)).reshape(b, t_total, -1)
    sel.cell.backward_unroll(dh, tape.batch.flat, tape.hs)


def surrogate_loss(
    model: PilotModel,
    batch: WindowBatch,
    forced_indices: np.ndarray,
    frozen_rewards: np.ndarray,
    lam: float,
    pg_weight: float = 1.0,
    sup_weight: float = 1.0,
) -> float | np.ndarray:
    """Deterministic objective used for gradient checking.

    The discrete selections are pinned to ``forced_indices`` and the
    REINFORCE rewards to ``frozen_rewards`` (REINFORCE treats rewards as
    constants), leaving exactly the differentiable paths the training step
    backpropagates: sup_weight * (regression + lam * smoothness) minus
    pg_weight * mean_q(r * log S(i_q)), both averaged over the batch. The
    forward is the training rollout's own selector and steering passes;
    a weight with a leading probe axis gives one loss per probe.

    Under pinned selections the policy term reads only the selector and the
    steering term only the regressor, so the objective is the sum of the
    ``pg_weight`` call and the ``sup_weight`` call; a zero weight skips its
    term. ``gradcheck.check_model`` relies on this: a probe of one network
    re-evaluates only that network's term.
    """
    if frozen_rewards.ndim != 3 or frozen_rewards.shape[2] != 1:
        raise InvalidInput("surrogate_loss covers the single-sample (Q=1) estimator")
    forced = np.asarray(forced_indices, dtype=np.int64)
    total = 0.0
    if pg_weight != 0.0:
        probs = model.selector.unroll(batch.flat)[1]
        chosen = probs[..., np.arange(batch.size)[:, None], np.arange(batch.frames), forced]
        terms = np.ascontiguousarray(frozen_rewards[..., 0] * np.log(chosen))
        total -= pg_weight * terms.reshape(terms.shape[:-2] + (-1,)).sum(axis=-1) / batch.size
    if sup_weight != 0.0:
        angles = _steer(model, batch, forced)[3]
        pred = np.ascontiguousarray(np.moveaxis(angles[1:], 0, -2))
        reg_term, smo_term = loss_terms(pred, batch.gt)
        total += sup_weight * (reg_term.mean(axis=-1) + lam * smo_term.mean(axis=-1))
    return total


# ---------------------------------------------------------------------------
# Steps and epochs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepStats:
    """Per-frame means over one step (or one epoch) of training."""

    regression: float
    smoothness: float
    mean_reward: float
    frames: int


@dataclass(frozen=True)
class Window:
    episode: int
    start: int
    stop: int


def slice_windows(lengths, seq_len: int) -> list[Window]:
    """Cut episodes into consecutive windows of at most seq_len frames.

    A trailing single-frame remainder is folded into the previous window
    (the trajectory loss needs at least two frames).
    """
    out = []
    for i, t_total in enumerate(lengths):
        starts = list(range(0, t_total, seq_len))
        for s in starts:
            stop = min(s + seq_len, t_total)
            if stop - s == 1 and out and out[-1].episode == i:
                out[-1] = Window(i, out[-1].start, stop)
            elif stop - s >= 2:
                out.append(Window(i, s, stop))
    return out


def pack_windows(arrays, windows: list[Window]) -> WindowBatch:
    """Stack same-length windows of the episodes ``arrays`` into one batch.
    Only ``flat``, ``positions`` and ``gt_track`` are stacked: the batch's
    ``motions`` (B, T, N, k) is a view of the stacked ``flat``'s last block."""
    spans = {w.stop - w.start for w in windows}
    if len(spans) != 1:
        raise InvalidInput(f"windows in one batch must share a length, got {sorted(spans)}")
    flat = np.stack([arrays[w.episode].flat[w.start : w.stop] for w in windows])
    pos = np.stack([arrays[w.episode].positions[w.start : w.stop] for w in windows])
    gt = np.stack([arrays[w.episode].gt_track[w.start : w.stop] for w in windows])
    n, k = arrays[windows[0].episode].motions.shape[1:]
    return WindowBatch(flat, pos, flat[..., -n * k :].reshape(*pos.shape[:3], k), gt)


def train_step(
    model: PilotModel,
    arrays,
    windows: list[Window],
    config: TrainConfig,
    lr: float,
    rng: np.random.Generator,
) -> StepStats:
    """One SGD step over a batch of windows.

    Windows of different lengths are grouped and rolled out separately but
    contribute to a single parameter update. On a non-finite loss or
    gradient the step aborts with NumericsError and parameters stay
    exactly as they were.
    """
    from .diffcore import clip_gradients, sgd_step

    require_positive("learning rate", lr)
    by_len: dict[int, list[Window]] = {}
    for w in windows:
        by_len.setdefault(w.stop - w.start, []).append(w)

    total_windows = len(windows)
    reg_sum = smo_sum = rew_sum = 0.0
    frames = 0
    for group in by_len.values():
        batch = pack_windows(arrays, group)
        tape = rollout_window(
            model, batch, rng=rng, q_samples=config.q_samples, eta=config.eta
        )
        group_share = len(group) / total_windows
        reg_term, smo_term = rollout_loss(tape)
        if not (np.isfinite(reg_term) and np.isfinite(smo_term)):
            for p in model.params():
                p.zero_grad()
            raise NumericsError("non-finite rollout loss; step aborted")
        pg_weight = config.pg_weight
        if config.pg_slot_scaling:
            pg_weight *= batch.positions.shape[2]
        backward_window(
            model,
            tape,
            config.smooth_lambda,
            pg_weight=pg_weight * group_share,
            sup_weight=group_share,
            baseline=config.baseline,
        )
        reg_sum += reg_term * len(group)
        smo_sum += smo_term * len(group)
        rew_sum += float(tape.rewards[:, :, 0].sum())
        frames += batch.size * batch.frames

    for p in model.params():
        if not np.all(np.isfinite(p.grad)):
            for q in model.params():
                q.zero_grad()
            raise NumericsError(f"non-finite gradient in {p.name}; step aborted")
    if config.grad_clip > 0:
        # Clip per network: the supervised signal's norm is orders of
        # magnitude above the policy gradient's early on, and a single
        # global clip would scale the selector's update to nothing.
        clip_gradients(model.selector.params(), config.grad_clip)
        clip_gradients(model.regressor.params(), config.grad_clip)
    sgd_step(model.params(), lr)
    return StepStats(
        regression=reg_sum / frames,
        smoothness=smo_sum / frames,
        mean_reward=rew_sum / frames,
        frames=frames,
    )


def checkpoint_name(epoch: int) -> str:
    return f"checkpoint_epoch{epoch:05d}.json"


def _resume_checkpoint(out_dir: Path, dims: ModelDims, config: TrainConfig):
    """(model, checkpoint) from the newest checkpoint in ``out_dir`` that
    loads: a damaged one, or one whose epoch is not its file name's, is
    skipped with a warning on stderr. Version and architecture mismatches
    raise, and so does the newest error if none loads. A checkpoint whose
    learning-rate schedule or seed is not ``config``'s raises ConfigError:
    the run would not continue the one that wrote it."""
    names = (re.fullmatch(r"checkpoint_epoch(\d+)\.json", p.name) for p in out_dir.iterdir())
    found = sorted((int(m.group(1)), m.string) for m in names if m)
    if not found:
        raise InvalidInput(f"no checkpoint to resume from in {out_dir}")
    errors = []
    for number, name in reversed(found):
        path = out_dir / name
        try:
            model, ckpt = load_model_checkpoint(path, expect_dims=dims)
            if ckpt.epoch != number:
                raise ParseError(f"checkpoint {path} holds epoch {ckpt.epoch}, not {number}")
            written = (ckpt.schedule, ckpt.rng_record.get("seed"))
            wanted = (config.schedule(), config.seed)
            if written != wanted:
                raise ConfigError(
                    f"checkpoint {path.name} has schedule {written[0]} and seed {written[1]!r}; "
                    f"the config has schedule {wanted[0]} and seed {wanted[1]!r}"
                )
            return model, ckpt
        except VersionError:
            raise
        except ParseError as exc:
            print(f"warning: skipping unreadable checkpoint {path.name}: {exc}", file=sys.stderr)
            errors.append(exc)
    raise errors[0]


def train(
    episodes: list[Episode],
    config: TrainConfig,
    dims: ModelDims,
    out_dir,
    resume: bool = False,
    log=None,
) -> tuple[PilotModel, list[dict]]:
    """Train a pilot model, writing checkpoints and a metrics log.

    Epoch e shuffles windows with rng (seed, 1, e) and batch j samples with
    rng (seed, 2, e, j); parameters initialize from (seed, 0). Resuming from
    the newest readable checkpoint therefore reproduces an uninterrupted
    run bit-exactly. A config whose schedule or seed is not the
    checkpoint's is refused (``max_epochs`` may change). ``metrics.jsonl``
    keeps one row per epoch: a resumed run drops the rows after the
    checkpoint's epoch before writing its own.
    """
    if not episodes:
        raise InvalidInput("training set is empty")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    schedule = config.schedule()
    arrays = [episode_arrays(ep) for ep in episodes]
    windows = slice_windows([len(ep) for ep in episodes], config.seq_len)

    start_epoch = 0
    if resume:
        model, ckpt = _resume_checkpoint(out_dir, dims, config)
        start_epoch = ckpt.epoch
    else:
        model = PilotModel(dims, np.random.default_rng([config.seed, 0]))
        save_model_checkpoint(out_dir / checkpoint_name(0), model, 0, schedule, {"seed": config.seed})

    history: list[dict] = []
    metrics_path = out_dir / "metrics.jsonl"
    with open(metrics_path, "a+b") as rows:
        # Keep one row per epoch up to the start; this run writes the rest.
        rows.seek(0)
        kept = sum(bool(rows.readline()) for _ in range(start_epoch))
        rows.truncate()
    if kept < start_epoch:
        print(f"warning: {metrics_path.name} holds {kept} rows, expected {start_epoch}", file=sys.stderr)
    with open(metrics_path, "a", encoding="utf-8") as metrics:
        for epoch in range(start_epoch, config.max_epochs):
            lr = schedule.lr(epoch)
            order = np.random.default_rng([config.seed, 1, epoch]).permutation(len(windows))
            reg = smo = rew = 0.0
            frames = 0
            n_steps = 0
            for j, lo in enumerate(range(0, len(order), config.batch_size)):
                chunk = [windows[i] for i in order[lo : lo + config.batch_size]]
                rng = np.random.default_rng([config.seed, 2, epoch, j])
                stats = train_step(model, arrays, chunk, config, lr, rng)
                reg += stats.regression
                smo += stats.smoothness
                rew += stats.mean_reward * stats.frames
                frames += stats.frames
                n_steps += 1
            record = {
                "epoch": epoch + 1,
                "lr": lr,
                "regression": reg / n_steps,
                "smoothness": smo / n_steps,
                "total": reg / n_steps + config.smooth_lambda * (smo / n_steps),
                "mean_reward": rew / frames,
            }
            history.append(record)
            metrics.write(json.dumps(record) + "\n")
            metrics.flush()
            if log is not None:
                log(record)
            done = epoch + 1
            if done % config.checkpoint_interval == 0 or done == config.max_epochs:
                save_model_checkpoint(
                    out_dir / checkpoint_name(done), model, done, schedule, {"seed": config.seed}
                )
    return model, history
