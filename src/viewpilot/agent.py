"""The composed online pilot: per-frame selection, naive follow offset,
recurrent refinement, and viewing-angle update. Strictly causal — each step
sees only the current observation and the carried state. :func:`pilot_episode`
(the ``agent`` method) runs the selector once and folds
``RegressorNetwork.steer``, the one B=1 steering loop, over the episode;
:func:`pilot_step` steps the selector cell and folds ``steer`` over one frame.

The module also owns the model checkpoint file, one JSON document whose
floats serialize via repr and so round-trip bit-exactly:
:func:`save_model_checkpoint` writes it and :func:`load_model_checkpoint`
reads, validates and verifies it.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .diffcore import LrSchedule, ParamTensor, check_field_types, softmax
from .errors import ConfigError, InvalidInput, NumericsError, ParseError, VersionError
from .geometry import Trajectory, ViewingAngle, _landed_angle
from .observation import Episode, FrameObservation, _lines, _parse_json_line
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
        check_field_types(self)
        if min(vars(self).values()) < 1:
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
        return params_digest({p.name: p.values for p in self.params()})


CHECKPOINT_FORMAT_VERSION = 1


def params_digest(arrays: dict[str, np.ndarray]) -> str:
    """SHA-256 prefix of the name -> array map, in name order."""
    import hashlib  # only checkpoints need it; kept off the import path

    h = hashlib.sha256()
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arrays[name]).tobytes())
    return h.hexdigest()[:12]


@dataclass(frozen=True)
class Checkpoint:
    """What a model checkpoint records besides the weights."""

    epoch: int
    schedule: LrSchedule
    rng_record: dict
    digest: str


def save_model_checkpoint(
    path, model: PilotModel, epoch: int, schedule: LrSchedule, rng_record: dict
) -> None:
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "arch": model.dims.as_dict(),
        "epoch": epoch,
        "lr_schedule": {"initial": schedule.initial, "decay": schedule.decay, "period": schedule.period},
        "rng": rng_record,
        "digest": model.digest(),
        "params": {
            p.name: {"shape": list(p.shape), "values": p.values.reshape(-1).tolist()}
            for p in model.params()
        },
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


def load_model_checkpoint(
    path, expect_dims: ModelDims | None = None
) -> tuple[PilotModel, Checkpoint]:
    """Read, validate and verify a checkpoint in one pass. An incomplete
    file, an epoch that is not a count, a parameter value that is not a JSON
    number, or values that do not hash to the stored digest raise
    ParseError; the format version VersionError; dims other than
    ``expect_dims``, or foreign parameter names or shapes, ConfigError; a
    non-finite value NumericsError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ParseError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    try:
        if doc.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise VersionError(f"unsupported checkpoint format version {doc.get('format_version')}")
        arch = doc["arch"]
        if expect_dims is not None and arch != expect_dims.as_dict():
            raise ConfigError(
                f"checkpoint architecture {arch} does not match expected {expect_dims.as_dict()}"
            )
        schedule = LrSchedule(**doc["lr_schedule"])
        values = {}
        for name, rec in doc["params"].items():
            if not set(map(type, rec["values"])) <= {int, float}:  # np.array reads "0.0" and true
                raise ParseError(f"checkpoint parameter {name} holds a value that is not a number")
            values[name] = np.array(rec["values"], dtype=np.float64).reshape(rec["shape"])
            if not np.all(np.isfinite(values[name])):
                raise NumericsError(f"checkpoint parameter {name} has non-finite entries")
        epoch = doc["epoch"]
        if isinstance(epoch, bool) or not isinstance(epoch, int) or epoch < 0:
            raise ParseError(f"checkpoint {path} has epoch {epoch!r}, not a non-negative integer")
        if not isinstance(doc["rng"], dict):
            raise ParseError(f"checkpoint {path} has rng {doc['rng']!r}, not an object")
        found = params_digest(values)
        if found != doc["digest"]:
            raise ParseError(
                f"checkpoint {path} digest {doc['digest']!r} does not match its values ({found!r})"
            )
        dims = ModelDims(**arch)
    except KeyError as exc:
        raise ParseError(f"checkpoint {path} is missing the key {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise ParseError(f"checkpoint {path} is malformed: {exc}") from exc
    model = PilotModel(dims, np.random.default_rng(0))
    shapes, own = {n: a.shape for n, a in values.items()}, model.param_map()
    if shapes != {n: p.shape for n, p in own.items()}:
        raise ConfigError(f"parameter shapes {shapes} do not match the model's {dims}")
    for name, arr in values.items():
        own[name].values[...] = arr
    return model, Checkpoint(epoch, schedule, doc["rng"], found)


@dataclass(frozen=True)
class AgentState:
    """Recurrent state the pilot carries between frames."""

    selector_h: np.ndarray
    regressor_mu: np.ndarray
    angle: ViewingAngle


def initial_state(model: PilotModel, init: ViewingAngle) -> AgentState:
    return AgentState(model.selector.initial_state(), model.regressor.initial_state(), init)


def pilot_step(
    obs: FrameObservation, state: AgentState, model: PilotModel
) -> tuple[ViewingAngle, int, AgentState]:
    """One online step: select a main object, refine the follow offset into a
    steering action, and move the viewing angle. The pick is the argmax of the
    head's softmax (not of its logits: rounding can tie slots that they order).
    The selector state (``cell.step``) may differ in its last bits from the
    ``unroll`` that :func:`pilot_episode` picks from; a test holds it within
    1e-14 and the top-two probability gap of the picks above 1e-8 on the
    eval workload's inputs, so there the two fold to the same floats."""
    h = model.selector.cell.step(obs.flat, state.selector_h)
    index = int(softmax(h.dot(model.selector.head.values.T)).argmax())  # ties: lowest slot
    if not 0 <= index < len(obs.scores):
        raise InvalidInput(f"selection index {index} out of range")
    xs = np.empty((1, model.dims.motion_bins + 2))  # steer writes the follow offset into xs[0, -2:]
    xs[0, :-2] = obs.motions[index]
    angle = state.angle
    [(az, el)], mu = model.regressor.steer(
        xs, [obs.positions[index].tolist()], angle.azimuth, angle.elevation, state.regressor_mu
    )
    if not (math.isfinite(az) and math.isfinite(el)):
        raise InvalidInput(f"non-finite viewing angle ({az}, {el})")
    angle = _landed_angle(az, el)  # steer lands the view
    return angle, index, AgentState(h, mu, angle)


def pilot_episode(episode: Episode, model: PilotModel) -> tuple[Trajectory, np.ndarray]:
    """:func:`pilot_step` folded over an episode from its first ground-truth
    angle, as (trajectory, picks): the argmax of one selector pass picks every
    frame's slot, then ``RegressorNetwork.steer`` moves the view."""
    picks = np.argmax(model.selector.unroll(episode.flat[None])[1][0], axis=-1)
    frames = np.arange(len(episode))
    xs = np.append(episode.motions[frames, picks], np.zeros((len(episode), 2)), axis=1)
    targets, start = episode.positions[frames, picks].tolist(), episode.gt_track[0].tolist()
    views, _ = model.regressor.steer(xs, targets, *start, model.regressor.initial_state())
    return Trajectory(views), picks


def write_trajectory(path, records, checkpoint_id: str, episode_index: int = 0, fh=None) -> None:
    """Write one episode's piloted trajectory as JSON lines to the open file
    ``fh`` (left open), or else to a new file at ``path``.

    ``records`` yields (frame_index, ViewingAngle, selected_index). A header
    line carrying the checkpoint identifier precedes the frame records.
    """
    with open(path, "w", encoding="utf-8") if fh is None else contextlib.nullcontext(fh) as fh:
        fh.write(json.dumps({"checkpoint": checkpoint_id, "episode": episode_index}) + "\n")
        for t, angle, selected in records:  # as json.dumps(rec, separators=(",", ":")) writes it
            az, el = angle.azimuth, angle.elevation
            fh.write(f'{{"frame":{t:d},"azimuth":{az!r},"elevation":{el!r},"selected":{selected:d}}}\n')


def read_trajectories(path) -> list[tuple[dict, Trajectory, list[int]]]:
    """Read a trajectory file back as (header, angles, selections) per
    episode, the angles one Trajectory. A header holds only ``checkpoint``,
    a string, and ``episode``, counting up from 0 in the file; frames must
    count up from 0, selections be integers >= 0, and no value a boolean."""
    episodes = []  # (header, landed angle rows, selections)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(_lines(fh), start=1):
            rec = _parse_json_line(line, lineno)
            if "checkpoint" in rec:
                header = {"checkpoint": rec["checkpoint"], "episode": len(episodes)}
                if rec != header or type(rec["checkpoint"]) is not str or type(rec["episode"]) is not int:
                    raise ParseError(
                        f"header {rec!r} is not {{checkpoint: <a string>, episode: {len(episodes)}}}",
                        line=lineno,
                    )
                episodes.append((rec, [], []))
                continue
            if not episodes:
                raise ParseError("frame record before any header", line=lineno)
            _, rows, selections = episodes[-1]
            try:
                if bool in map(type, rec.values()):
                    raise ValueError("a value is a boolean")
                frame, selected = rec["frame"], rec["selected"]
                if type(frame) is not int or frame != len(rows):
                    raise ValueError(f"frame {frame!r} should be {len(rows)}")
                if type(selected) is not int or selected < 0:
                    raise ValueError(f"selected {selected!r} is not a non-negative integer")
                angle = ViewingAngle(rec["azimuth"], rec["elevation"])
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ParseError(f"bad frame record: {exc!r}", line=lineno) from exc
            rows.append((angle.azimuth, angle.elevation))
            selections.append(selected)
    return [
        (header, Trajectory(np.reshape(rows, (-1, 2))), selections)
        for header, rows, selections in episodes
    ]
