"""Minimal differentiable plumbing: parameters (each network's bias-free
head is one), the tanh RNN cell, softmax, SGD with a step-decay schedule,
and finite-difference gradient checks.

Everything is float64 numpy. Backward passes are hand-derived; there is no
general autodiff. ``TanhRnnCell.step`` and ``backward_step`` are the cells'
one forward and one reverse step; ``unroll`` and ``RegressorNetwork.steer``
(the one B=1 steering loop) replicate ``step`` inline, as batched
``training._steer`` takes 3.7x ``steer``'s time per frame at B=1. Forward
functions accept a single vector or a batch-first array (``step`` and
``unroll`` also stacked weights); backward helpers expect 2-D batches.

Per-step products of 1-D and 2-D operands go through ``ndarray.dot``: it
calls the same BLAS routine as ``@`` and so gives the same floats, at about
half the per-call dispatch cost of the ``np.matmul`` gufunc;
``tests/test_diffcore.py`` guards that equality for every operand form the
loops use. Only weights that carry stacked probe axes take ``np.matmul``,
since ``dot`` contracts N-D operands differently.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import InvalidInput, NumericsError


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
        """``tanh(x.dot(W_xh^T) + h_prev.dot(W_hh^T) + b)``, summed in that
        order, in place in ``out`` when given (C-contiguous, as ``dot`` needs).
        Weights may carry leading probe axes as in :meth:`unroll`; when
        ``w_hh`` or ``b`` does, ``x`` or ``out`` must too, and a product with
        an operand over 2-D runs through ``np.matmul``."""
        if x.shape[-1] != self.input_dim or h_prev.shape[-1] != self.hidden_dim:
            raise InvalidInput(
                f"cell expects input {self.input_dim} / hidden {self.hidden_dim}, "
                f"got {x.shape[-1]} / {h_prev.shape[-1]}"
            )
        w_xh, w_hh, bias = self.w_xh.values, self.w_hh.values, self.b.values
        if w_xh.ndim == 2 and x.ndim <= 2 and (out is None or out.ndim <= 2):
            pre = x.dot(w_xh.T, out=out)
        else:
            pre = np.matmul(x, w_xh.swapaxes(-1, -2), out=out)
        if w_hh.ndim == 2 and h_prev.ndim <= 2:
            pre += h_prev.dot(w_hh.T)
        else:
            pre += h_prev @ w_hh.swapaxes(-1, -2)
        pre += bias if bias.ndim == 1 else bias[..., None, :]
        return np.tanh(pre, out=pre)

    def backward_step(self, d: np.ndarray, deriv: np.ndarray) -> np.ndarray:
        """Pre-activation grads, in place, of the post-activation grads ``d``
        (B, H) (``d *= deriv``, the saved 1 - h^2); returns the previous state's."""
        d *= deriv
        return d.dot(self.w_hh.values)

    def unroll(self, xs: np.ndarray) -> np.ndarray:
        """Hidden states (..., B, T+1, H) over a (B, T, D) input sequence,
        from a zero initial state at index 0.

        The loop is :meth:`step` with every step's input projection hoisted
        into one GEMM ahead of the recurrence, inline because a call per step
        would add about a third to a B=1 step. Weights may carry leading
        probe axes (..., H, ·), which the states then lead with; each slice
        is the 2-D computation, and only then does the recurrent product
        take ``np.matmul`` instead of ``dot``. The states are a view of a
        time-major array.
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
        product = np.matmul if lead else np.ndarray.dot
        for x_t, h_next in zip(np.moveaxis(xproj, -2, 0), hs[1:]):
            h = np.add(x_t, product(h, w_hh), out=h_next)
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


def require_positive(name: str, value: float, allow_zero: bool = False) -> None:
    """Raise InvalidInput naming ``name`` unless ``value`` is finite and
    positive (or zero, with ``allow_zero``). Written so that NaN fails."""
    if not (value >= 0 if allow_zero else value > 0):
        raise InvalidInput(f"{name} must be {'>= 0' if allow_zero else 'positive'}, got {value}")
    if value == np.inf:
        raise InvalidInput(f"{name} must be finite, got {value}")


_FIELD_TYPES = {"int": (int, "an integer"), "float": (float, "a number"), "bool": (bool, "a boolean"),
                "str": (str, "a string")}


def check_field_types(settings, prefix: str = "") -> None:
    """Hold each field of the frozen settings dataclass ``settings`` to its
    annotation, a key of ``_FIELD_TYPES``, else raise InvalidInput naming
    ``prefix`` + the field. A number field takes no bool, NaN or infinity,
    and a float field stores an int as its float (none past the float range)."""
    for f in fields(settings):
        name, value = prefix + f.name, getattr(settings, f.name)
        kind = getattr(f.type, "__name__", f.type)  # postponed annotations are strings
        allowed, noun = _FIELD_TYPES[kind]
        if kind in ("int", "float") and isinstance(value, (int, float)) and not isinstance(value, bool):
            try:  # NaN fails the comparison, an int past the float range the conversion
                finite = abs(float(value)) < np.inf
            except OverflowError:
                finite = kind == "int"
            if not finite:
                raise InvalidInput(f"{name} must be finite, got {value}")
            if kind == "float":
                value = float(value)
                object.__setattr__(settings, f.name, value)
        if not isinstance(value, allowed) or isinstance(value, bool) != (kind == "bool"):
            raise InvalidInput(f"{name} must be {noun}, got {value!r}")


@dataclass(frozen=True)
class LrSchedule:
    """Step-decay learning rate: initial * decay^(epoch // period)."""

    initial: float
    decay: float
    period: int

    def __post_init__(self):
        check_field_types(self, "learning-rate schedule ")
        for name in ("initial", "decay", "period"):
            require_positive(f"learning-rate schedule {name}", getattr(self, name))

    def lr(self, epoch: int) -> float:
        return self.initial * self.decay ** (epoch // self.period)


def clip_gradients(params: Sequence[ParamTensor], max_norm: float) -> float:
    """Scale all gradients down to a global norm of ``max_norm`` if exceeded;
    returns the norm before scaling."""
    norm = float(np.sqrt(sum(float(np.sum(p.grad * p.grad)) for p in params)))
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
    require_positive("learning rate", lr)
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


_PROBE_BLOCK_ENTRIES = 1 << 17  # bound on one probe block's stacked entries (1 MB of float64)
DEFAULT_GRADCHECK_TOLERANCE = 1e-4  # max relative error; gradcheck and its CLI flag default to it


def gradient_check(
    loss_fn, params: Sequence[ParamTensor], tolerance: float = DEFAULT_GRADCHECK_TOLERANCE
) -> GradCheckResult:
    """Compare the analytic grads already stored in ``params`` against
    central finite differences of ``loss_fn`` with step 1e-5.

    A tensor's entries are probed k at a time, 2k * size at most
    ``_PROBE_BLOCK_ENTRIES`` (k >= 1). ``loss_fn(param, values)`` runs with
    ``param.values`` set to the (2k, *shape) stack whose row j holds the
    j-th entry at orig + step and row k + j at orig - step, and returns the
    2k losses, with no gradient side effects. Every block of a tensor is
    written into one buffer, so ``loss_fn`` may not keep ``values`` (or a
    view of it) past its call. Each probe is its own slice and reductions
    run along contiguous trailing axes, so each loss is the float the 2-D
    forward gives for that probe alone. The relative error denominator is
    floored at 1e-3 so that gradients far below the finite-difference noise
    floor compare in absolute terms.
    """
    step = 1e-5
    analytic = {p.name: p.grad.reshape(-1).copy() for p in params}
    errors: dict[str, float] = {}
    for p in params:
        nominal, ref, worst = p.values, analytic[p.name], 0.0
        flat = nominal.reshape(-1)
        per_block = max(1, _PROBE_BLOCK_ENTRIES // max(2 * flat.size, 1))
        buffer = np.empty(2 * min(per_block, flat.size) * flat.size)  # any prefix is a block
        for lo in range(0, flat.size, per_block):
            idx = np.arange(lo, min(lo + per_block, flat.size))
            stack = buffer[: 2 * idx.size * flat.size].reshape(2, idx.size, flat.size)
            stack[...] = flat
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
