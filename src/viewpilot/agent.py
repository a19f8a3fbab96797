"""The composed online pilot: per-frame selection, naive follow offset,
recurrent refinement, and viewing-angle update. Strictly causal — each step
sees only the current observation and the carried state. The selector steps
with ``diffcore.TanhRnnCell.step``; :func:`steering_step` replicates that
step inline for :func:`pilot_step` and ``evaluation.agent_pilot``, held by a
test to the floats of ``training._steer``, which calls the method.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .diffcore import (
    Checkpoint, LrSchedule, ParamTensor, load_checkpoint, params_digest, save_checkpoint, softmax,
)
from .errors import ConfigError, InvalidInput, ParseError
from .geometry import ViewingAngle, clamp_elevation, signed_azimuth_delta, wrap_azimuth
from .observation import OFFSET_SCALE, Episode, FrameObservation, _parse_json_line
from .regressor import RegressorNetwork
from .selector import SelectorNetwork


@dataclass(frozen=True)
class ModelDims:
    """Architecture hyperparameters shared by checkpoints and data files."""

    appearance_dim: int
    motion_bins: int
    slots: int
    selector_hidden: int
    regressor_hidden: int

    def __post_init__(self):
        if any(type(v) is not int or v < 1 for v in vars(self).values()):
            raise InvalidInput(f"model dimensions must be positive integers, got {vars(self)}")

    @property
    def flat_dim(self) -> int:
        return (self.appearance_dim + 2 + self.motion_bins) * self.slots

    def as_dict(self) -> dict:
        return dict(vars(self))


class PilotModel:
    """All trainable weights of the selector and regressor networks."""

    def __init__(self, dims: ModelDims, rng: np.random.Generator):
        self.dims = dims
        self.selector = SelectorNetwork(dims.flat_dim, dims.selector_hidden, dims.slots, rng)
        self.regressor = RegressorNetwork(dims.motion_bins, dims.regressor_hidden, rng)

    def params(self) -> list[ParamTensor]:
        return self.selector.params() + self.regressor.params()

    def param_map(self) -> dict[str, ParamTensor]:
        return {p.name: p for p in self.params()}

    def digest(self) -> str:
        return params_digest(self.params())

    def load_param_values(self, values: dict[str, np.ndarray]) -> None:
        own = self.param_map()
        if set(values) != set(own):
            raise ConfigError(
                f"parameter names {sorted(values)} do not match model {sorted(own)}"
            )
        for name, arr in values.items():
            if arr.shape != own[name].shape:
                raise ConfigError(f"parameter {name} shape {arr.shape} != {own[name].shape}")
            own[name].values[...] = arr

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint) -> "PilotModel":
        try:
            dims = ModelDims(**ckpt.arch)
        except (TypeError, InvalidInput) as exc:
            raise ParseError(f"checkpoint arch {ckpt.arch!r} is malformed: {exc}") from exc
        model = cls(dims, np.random.default_rng(0))
        model.load_param_values(ckpt.params)
        return model


def save_model_checkpoint(
    path, model: PilotModel, epoch: int, schedule: LrSchedule, rng_record: dict
) -> None:
    save_checkpoint(path, model.dims.as_dict(), epoch, schedule, rng_record, model.params())


def load_model_checkpoint(path, expect_dims: ModelDims | None = None):
    """Returns (model, checkpoint); validates dims when ``expect_dims`` given."""
    ckpt = load_checkpoint(path, expect_arch=expect_dims.as_dict() if expect_dims else None)
    return PilotModel.from_checkpoint(ckpt), ckpt


@dataclass(frozen=True)
class AgentState:
    """Recurrent state the pilot carries between frames."""

    selector_h: np.ndarray
    regressor_mu: np.ndarray
    angle: ViewingAngle


def initial_state(model: PilotModel, init: ViewingAngle) -> AgentState:
    return AgentState(model.selector.initial_state(), model.regressor.initial_state(), init)


def steering_step(model: PilotModel):
    """``step(x, target_az, target_el, az, el, mu) -> (az, el, mu)``: move the
    view (az, el) toward the selected slot at (target_az, target_el). ``x``
    (k+2,) holds the slot's motions; the step writes the follow offset into
    its last two entries. It is ``TanhRnnCell.step`` inlined (a call would add
    a third to its time), then ``training._steer``'s head and landing at B=1,
    in their order, so the landed views are the same floats (NaN stays NaN)."""
    cell, k = model.regressor.cell, model.dims.motion_bins
    w_xh, w_hh, bias = cell.w_xh.values.T, cell.w_hh.values.T, cell.b.values
    w_r = model.regressor.head.w.values.T

    def step(x, target_az, target_el, az, el, mu):
        x[k] = signed_azimuth_delta(target_az - az) / OFFSET_SCALE
        x[k + 1] = (target_el - el) / OFFSET_SCALE
        pre = x @ w_xh
        pre += mu @ w_hh
        pre += bias
        mu = np.tanh(pre, out=pre)
        d_az, d_el = (mu @ w_r).tolist()
        return wrap_azimuth(az + d_az), clamp_elevation(el + d_el), mu

    return step


def pilot_step(
    obs: FrameObservation, state: AgentState, model: PilotModel
) -> tuple[ViewingAngle, int, AgentState]:
    """One online step: select a main object, refine the follow offset into a
    steering action, and move the viewing angle."""
    if obs.flat.shape[-1] != model.dims.flat_dim:
        raise InvalidInput(
            f"observation dim {obs.flat.shape[-1]} != model dim {model.dims.flat_dim}"
        )
    h = model.selector.cell.step(obs.flat, state.selector_h)
    index = int(np.argmax(softmax(h @ model.selector.head.w.values.T)))  # ties: lowest slot
    if not 0 <= index < len(obs.scores):
        raise InvalidInput(f"selection index {index} out of range")
    x = np.append(obs.motions[index], (0.0, 0.0))
    target, view = obs.positions[index].tolist(), (state.angle.azimuth, state.angle.elevation)
    az, el, mu = steering_step(model)(x, *target, *view, state.regressor_mu)
    angle = ViewingAngle(az, el)
    return angle, index, AgentState(h, mu, angle)


def pilot_episode(
    episode: Episode, model: PilotModel, init: ViewingAngle | None = None
) -> tuple[list[ViewingAngle], list[int]]:
    """Fold :func:`pilot_step` over an episode.

    ``init`` defaults to the episode's first ground-truth angle, the
    convention used uniformly by training and every benchmark method.
    """
    if init is None:
        init = ViewingAngle(*episode.gt_track[0].tolist())
    state = initial_state(model, init)
    trajectory: list[ViewingAngle] = []
    selections: list[int] = []
    for frame in episode.frames:
        angle, index, state = pilot_step(frame, state, model)
        trajectory.append(angle)
        selections.append(index)
    return trajectory, selections


def write_trajectory(path, records, checkpoint_id: str, episode_index: int = 0, fh=None) -> None:
    """Write one episode's piloted trajectory as JSON lines.

    ``records`` yields (frame_index, ViewingAngle, selected_index). A header
    line carrying the checkpoint identifier precedes the frame records.
    """
    own = fh is None
    if own:
        fh = open(path, "w", encoding="utf-8")
    try:
        fh.write(json.dumps({"checkpoint": checkpoint_id, "episode": episode_index}) + "\n")
        for t, angle, selected in records:  # as json.dumps(rec, separators=(",", ":")) writes it
            az, el = angle.azimuth, angle.elevation
            fh.write(f'{{"frame":{t:d},"azimuth":{az!r},"elevation":{el!r},"selected":{selected:d}}}\n')
    finally:
        if own:
            fh.close()


def read_trajectories(path) -> list[tuple[dict, list[ViewingAngle], list[int]]]:
    """Read a trajectory file back as (header, angles, selections) per episode.
    Frames must count up from 0, selections be integers >= 0, and no value a boolean."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            rec = _parse_json_line(line, lineno)
            if "checkpoint" in rec:
                out.append((rec, [], []))
                continue
            if not out:
                raise ParseError("frame record before any header", line=lineno)
            _, angles, selections = out[-1]
            try:
                if bool in map(type, rec.values()):
                    raise ValueError("a value is a boolean")
                frame, selected = rec["frame"], rec["selected"]
                if type(frame) is not int or frame != len(angles):
                    raise ValueError(f"frame {frame!r} should be {len(angles)}")
                if type(selected) is not int or selected < 0:
                    raise ValueError(f"selected {selected!r} is not a non-negative integer")
                angle = ViewingAngle(rec["azimuth"], rec["elevation"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"bad frame record: {exc!r}", line=lineno) from exc
            angles.append(angle)
            selections.append(selected)
    return out
