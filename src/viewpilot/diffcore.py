"""Minimal differentiable plumbing: parameters, tanh RNN cell, affine heads,
softmax, SGD with a step-decay schedule, finite-difference gradient checks,
and checkpoint files.

Everything is float64 numpy. Backward passes are hand-derived; there is no
general autodiff. ``TanhRnnCell.step`` and ``backward_step`` are the cells'
one forward and one reverse step; ``unroll`` and ``agent.steering_step``
replicate ``step`` inline. Forward functions accept a single vector or a
batch-first array (``step`` and ``unroll`` also stacked weights); backward
helpers expect 2-D batches.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, InvalidInput, NumericsError, ParseError, VersionError

CHECKPOINT_FORMAT_VERSION = 1


class ParamTensor:
    """A named trainable array with a same-shape gradient accumulator."""

    __slots__ = ("name", "values", "grad")

    def __init__(self, name: str, values: np.ndarray):
        self.name = name
        self.values = np.asarray(values, dtype=np.float64)
        if not np.all(np.isfinite(self.values)):
            raise NumericsError(f"parameter {name} has non-finite entries")
        self.grad = np.zeros_like(self.values)

    @property
    def shape(self):
        return self.values.shape

    def zero_grad(self):
        self.grad[...] = 0.0

    def __repr__(self):
        return f"ParamTensor({self.name!r}, shape={self.values.shape})"


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """Uniform in [-s, s] with s = 1/sqrt(fan_in)."""
    s = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-s, s, size=shape)


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax (max-subtracted); works on 1-D or 2-D input."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


class TanhRnnCell:
    """Single-layer Elman cell: h = tanh(W_xh x + W_hh h_prev + b)."""

    def __init__(self, name: str, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_xh = ParamTensor(f"{name}.w_xh", uniform_init(rng, (hidden_dim, input_dim), input_dim))
        self.w_hh = ParamTensor(f"{name}.w_hh", uniform_init(rng, (hidden_dim, hidden_dim), hidden_dim))
        self.b = ParamTensor(f"{name}.b", np.zeros(hidden_dim))

    def params(self) -> list[ParamTensor]:
        return [self.w_xh, self.w_hh, self.b]

    def step(self, x: np.ndarray, h_prev: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``tanh(x @ W_xh^T + h_prev @ W_hh^T + b)``, summed in that order, in
        place in ``out`` when given. Weights may carry leading probe axes as in
        :meth:`unroll`; when ``w_hh`` or ``b`` does, ``x`` or ``out`` must too."""
        if x.shape[-1] != self.input_dim or h_prev.shape[-1] != self.hidden_dim:
            raise InvalidInput(
                f"cell expects input {self.input_dim} / hidden {self.hidden_dim}, "
                f"got {x.shape[-1]} / {h_prev.shape[-1]}"
            )
        bias = self.b.values
        pre = np.matmul(x, self.w_xh.values.swapaxes(-1, -2), out=out)
        pre += h_prev @ self.w_hh.values.swapaxes(-1, -2)
        pre += bias if bias.ndim == 1 else bias[..., None, :]
        return np.tanh(pre, out=pre)

    def backward_step(self, d: np.ndarray, deriv: np.ndarray) -> np.ndarray:
        """Pre-activation grads, in place, of the post-activation grads ``d``
        (B, H) (``d *= deriv``, the saved 1 - h^2); returns the previous state's."""
        d *= deriv
        return d @ self.w_hh.values

    def unroll(self, xs: np.ndarray) -> np.ndarray:
        """Hidden states (..., B, T+1, H) over a (B, T, D) input sequence,
        from a zero initial state at index 0.

        The loop is :meth:`step` with every step's input projection hoisted
        into one GEMM ahead of the recurrence, inline because a call per step
        would add about a third to a B=1 step. Weights may carry leading
        probe axes (..., H, ·), which the states then lead with; each slice
        is the 2-D computation. The states are a view of a time-major array.
        """
        b, t_total, d = xs.shape
        if d != self.input_dim:
            raise InvalidInput(f"cell expects input {self.input_dim}, got {d}")
        w_hh, bias = self.w_hh.values.swapaxes(-1, -2), self.b.values[..., None, :]
        xproj = xs.reshape(-1, d) @ self.w_xh.values.swapaxes(-1, -2)
        xproj = xproj.reshape(xproj.shape[:-2] + (b, t_total, self.hidden_dim))
        lead = np.broadcast_shapes(xproj.shape[:-3], w_hh.shape[:-2], bias.shape[:-2])
        hs = np.empty((t_total + 1,) + lead + (b, self.hidden_dim))
        h = hs[0]
        h[...] = 0.0
        for t in range(t_total):
            h = np.add(xproj[..., t, :], h @ w_hh, out=hs[t + 1])
            h += bias
            np.tanh(h, out=h)
        return hs.transpose(tuple(range(1, hs.ndim - 1)) + (0, hs.ndim - 1))

    def accumulate_grads(self, dpre: np.ndarray, xs: np.ndarray, h_prevs: np.ndarray) -> None:
        """Parameter grads of many recorded steps as one GEMM each.

        ``dpre`` (pre-activation grads), ``xs`` and ``h_prevs`` share their
        leading axes, e.g. (B, T, ·).
        """
        dpre = dpre.reshape(-1, self.hidden_dim)
        self.w_xh.grad += dpre.T @ xs.reshape(-1, self.input_dim)
        self.w_hh.grad += dpre.T @ h_prevs.reshape(-1, self.hidden_dim)
        self.b.grad += dpre.sum(axis=0)

    def backward_unroll(self, dh: np.ndarray, xs: np.ndarray, hs: np.ndarray) -> np.ndarray:
        """BPTT through :meth:`unroll` for outside grads ``dh`` (B, T, H) on
        ``hs[:, 1:]``; accumulates parameter grads and returns dLoss/dh0.

        The reverse loop carries only the recurrence; the parameter grads
        follow from the stacked pre-activation grads afterwards.
        """
        deriv = 1.0 - hs[:, 1:] * hs[:, 1:]
        dpre = np.empty((dh.shape[1],) + hs[:, 0].shape)  # time-major
        carry = np.zeros_like(hs[:, 0])
        for t in reversed(range(dh.shape[1])):
            carry = self.backward_step(np.add(dh[:, t], carry, out=dpre[t]), deriv[:, t])
        self.accumulate_grads(dpre.transpose(1, 0, 2), xs, hs[:, :-1])
        return carry


class Linear:
    """Bias-free affine head: y = W x.

    ``gain`` scales the init range; heads whose outputs live on a larger
    scale than the (-1, 1) hidden units (e.g. steering in degrees) need it
    to express useful magnitudes from the start.
    """

    def __init__(
        self, name: str, input_dim: int, output_dim: int, rng: np.random.Generator,
        gain: float = 1.0,
    ):
        self.w = ParamTensor(
            f"{name}.w", gain * uniform_init(rng, (output_dim, input_dim), input_dim)
        )

    def params(self) -> list[ParamTensor]:
        return [self.w]

    def backward(self, dy: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Accumulate the weight grad for outputs ``x @ W^T``; returns dx."""
        self.w.grad += dy.T @ x
        return dy @ self.w.values


@dataclass(frozen=True)
class LrSchedule:
    """Step-decay learning rate: initial * decay^(epoch // period)."""

    initial: float
    decay: float
    period: int

    def __post_init__(self):
        if self.initial <= 0 or self.decay <= 0 or self.period <= 0:
            raise InvalidInput("learning-rate schedule fields must be positive")

    def lr(self, epoch: int) -> float:
        return self.initial * self.decay ** (epoch // self.period)


def global_grad_norm(params: Iterable[ParamTensor]) -> float:
    return float(np.sqrt(sum(float(np.sum(p.grad * p.grad)) for p in params)))


def clip_gradients(params: Sequence[ParamTensor], max_norm: float) -> float:
    """Scale all gradients down to a global norm of ``max_norm`` if exceeded."""
    norm = global_grad_norm(params)
    if norm > max_norm:
        scale = max_norm / norm
        for p in params:
            p.grad *= scale
    return norm


def sgd_step(params: Sequence[ParamTensor], lr: float) -> None:
    """p <- p - lr * grad for every parameter, then reset grads to zero.

    Raises NumericsError (before touching any values) if any gradient is
    non-finite.
    """
    if lr <= 0:
        raise InvalidInput(f"learning rate must be positive, got {lr}")
    for p in params:
        if not np.all(np.isfinite(p.grad)):
            raise NumericsError(f"non-finite gradient in {p.name}")
    for p in params:
        p.values -= lr * p.grad
        p.zero_grad()


@dataclass
class GradCheckResult:
    """Per-parameter maximum relative error between analytic and numeric grads."""

    max_rel_error: dict[str, float]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(v < self.tolerance for v in self.max_rel_error.values())

    @property
    def worst(self) -> tuple[str, float]:
        if not self.max_rel_error:
            return ("", 0.0)
        name = max(self.max_rel_error, key=self.max_rel_error.get)
        return name, self.max_rel_error[name]


_PROBE_BLOCK_ENTRIES = 1 << 16  # bound on one probe block's stacked entries (512 kB)


def gradient_check(
    loss_fn, params: Sequence[ParamTensor], tolerance: float = 1e-4
) -> GradCheckResult:
    """Compare the analytic grads already stored in ``params`` against
    central finite differences of ``loss_fn`` with step 1e-5.

    A tensor's entries are probed k at a time, 2k * size at most
    ``_PROBE_BLOCK_ENTRIES`` (k >= 1). ``loss_fn(param, values)`` runs with
    ``param.values`` set to the (2k, *shape) stack whose row j holds the
    j-th entry at orig + step and row k + j at orig - step, and returns the
    2k losses, with no gradient side effects. Each probe is its own slice
    and reductions run along contiguous trailing axes, so each loss is the
    float the 2-D forward gives for that probe alone. The relative error
    denominator is floored at 1e-3 so that gradients far below the
    finite-difference noise floor compare in absolute terms.
    """
    step = 1e-5
    analytic = {p.name: p.grad.reshape(-1).copy() for p in params}
    errors: dict[str, float] = {}
    for p in params:
        nominal, ref, worst = p.values, analytic[p.name], 0.0
        flat = nominal.reshape(-1)
        per_block = max(1, _PROBE_BLOCK_ENTRIES // max(2 * flat.size, 1))
        for lo in range(0, flat.size, per_block):
            idx = np.arange(lo, min(lo + per_block, flat.size))
            stack = np.tile(flat, (2, idx.size, 1))
            stack[0, idx - lo, idx] = flat[idx] + step
            stack[1, idx - lo, idx] = flat[idx] - step
            p.values = stack.reshape((2 * idx.size,) + nominal.shape)
            try:
                losses = np.asarray(loss_fn(p, p.values), dtype=np.float64)
            finally:
                p.values = nominal
            f_plus, f_minus = losses.reshape(2, -1)
            finite = np.isfinite(f_plus) & np.isfinite(f_minus)
            if not finite.all():
                raise NumericsError(f"non-finite loss while probing {p.name}[{idx[finite.argmin()]}]")
            numeric = (f_plus - f_minus) / (2.0 * step)
            denom = np.maximum(np.maximum(np.abs(ref[idx]), np.abs(numeric)), 1e-3)
            worst = np.maximum(worst, (np.abs(ref[idx] - numeric) / denom).max())
        errors[p.name] = float(worst)
    return GradCheckResult(errors, tolerance)


# ---------------------------------------------------------------------------
# Checkpoints: one JSON document per file. Floats serialize via repr and
# therefore round-trip bit-exactly.
# ---------------------------------------------------------------------------


def params_digest(params: Sequence[ParamTensor]) -> str:
    import hashlib  # only checkpoints need it; kept off the import path

    h = hashlib.sha256()
    for p in sorted(params, key=lambda p: p.name):
        h.update(p.name.encode())
        h.update(np.ascontiguousarray(p.values).tobytes())
    return h.hexdigest()[:12]


def save_checkpoint(
    path,
    arch: dict,
    epoch: int,
    schedule: LrSchedule,
    rng_record: dict,
    params: Sequence[ParamTensor],
) -> None:
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "arch": arch,
        "epoch": epoch,
        "lr_schedule": {"initial": schedule.initial, "decay": schedule.decay, "period": schedule.period},
        "rng": rng_record,
        "digest": params_digest(params),
        "params": {p.name: {"shape": list(p.shape), "values": p.values.reshape(-1).tolist()} for p in params},
    }
    import os

    # Write a sibling file and rename it over the target, so a crash
    # mid-write leaves the previous checkpoint intact.
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


@dataclass
class Checkpoint:
    arch: dict
    epoch: int
    schedule: LrSchedule
    rng_record: dict
    params: dict[str, np.ndarray]
    digest: str


def load_checkpoint(path, expect_arch: dict | None = None) -> Checkpoint:
    """Load a checkpoint; rejects unknown format versions and, when
    ``expect_arch`` is given, any architecture mismatch.

    A file that is not a complete checkpoint, whose epoch is not a count
    (a non-negative integer), or whose parameter values do not hash to its
    stored digest, raises ``ParseError``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ParseError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    try:
        if doc.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise VersionError(f"unsupported checkpoint format version {doc.get('format_version')}")
        arch = doc["arch"]
        if expect_arch is not None and arch != expect_arch:
            raise ConfigError(
                f"checkpoint architecture {arch} does not match expected {expect_arch}"
            )
        sched = LrSchedule(**doc["lr_schedule"])
        params = {}
        for name, rec in doc["params"].items():
            values = np.array(rec["values"], dtype=np.float64).reshape(rec["shape"])
            if not np.all(np.isfinite(values)):
                raise NumericsError(f"checkpoint parameter {name} has non-finite entries")
            params[name] = values
        epoch = doc["epoch"]
        if isinstance(epoch, bool) or not isinstance(epoch, int) or epoch < 0:
            raise ParseError(f"checkpoint {path} has epoch {epoch!r}, not a non-negative integer")
        ckpt = Checkpoint(arch, epoch, sched, doc["rng"], params, doc["digest"])
    except KeyError as exc:
        raise ParseError(f"checkpoint {path} is missing the key {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise ParseError(f"checkpoint {path} is malformed: {exc}") from exc
    found = params_digest([ParamTensor(name, values) for name, values in params.items()])
    if found != ckpt.digest:
        raise ParseError(
            f"checkpoint {path} digest {ckpt.digest!r} does not match its values ({found!r})"
        )
    return ckpt
