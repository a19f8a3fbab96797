"""Declarative run configuration: one JSON file covering scene generation,
model dimensions, training, data splits, and evaluation.

Parsing is strict: unknown keys anywhere are rejected, every field has a
default, and dotted-path overrides (``train.lr_initial=0.01``) are
type-checked against the target field. Numbers must be finite.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .agent import ModelDims
from .errors import ConfigError, InvalidInput
from .evaluation import DEFAULT_DP_SMOOTH_WEIGHT, DEFAULT_GRID_STEP
from .geometry import DEFAULT_H_SPAN
from .observation import SceneConfig
from .training import TrainConfig


@dataclass(frozen=True)
class ModelConfig:
    selector_hidden: int = 32
    regressor_hidden: int = 8

    def __post_init__(self):
        if min(self.selector_hidden, self.regressor_hidden) < 1:
            raise InvalidInput("selector_hidden and regressor_hidden must be >= 1")


@dataclass(frozen=True)
class DataConfig:
    seed: int = 2026
    train_count: int = 50
    test_count: int = 10

    def __post_init__(self):
        if min(self.train_count, self.test_count) < 1:
            raise InvalidInput("train_count and test_count must be >= 1")


@dataclass(frozen=True)
class EvalConfig:
    grid_step: float = DEFAULT_GRID_STEP
    dp_smooth_weight: float = DEFAULT_DP_SMOOTH_WEIGHT
    h_span: float = DEFAULT_H_SPAN

    def __post_init__(self):
        if not (0 < self.grid_step <= 180 and 0 < self.h_span <= 360) or self.dp_smooth_weight < 0:
            raise InvalidInput("grid_step in (0, 180], h_span in (0, 360], dp_smooth_weight >= 0")


@dataclass(frozen=True)
class PathsConfig:
    out_dir: str = "runs"


@dataclass(frozen=True)
class RunConfig:
    scene: SceneConfig = field(default_factory=SceneConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)

    def dims(self) -> ModelDims:
        return ModelDims(
            appearance_dim=self.scene.appearance_dim,
            motion_bins=self.scene.motion_bins,
            slots=self.scene.slots,
            selector_hidden=self.model.selector_hidden,
            regressor_hidden=self.model.regressor_hidden,
        )


_SECTIONS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _coerce(value, target_type, path: str):
    if target_type is float:
        try:  # NaN, the infinities and integers past the float range are rejected
            if type(value) in (int, float) and abs(float(value)) < float("inf"):
                return float(value)
        except OverflowError:
            pass
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    if target_type is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return value
    if target_type is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected a boolean, got {value!r}")
        return value
    if target_type is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        return value
    raise ConfigError(f"{path}: unsupported field type {target_type}")


def _parse_section(cls, mapping: dict, section: str):
    if not isinstance(mapping, dict):
        raise ConfigError(f"section {section!r} must be an object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(mapping) - set(fields)
    if unknown:
        raise ConfigError(f"unknown keys in {section!r}: {sorted(unknown)}")
    kwargs = {}
    for key, value in mapping.items():
        target = fields[key].type
        if isinstance(target, str):  # dataclass fields carry annotation strings
            target = {"int": int, "float": float, "bool": bool, "str": str}[target]
        kwargs[key] = _coerce(value, target, f"{section}.{key}")
    try:
        return cls(**kwargs)
    except Exception as exc:
        raise ConfigError(f"invalid {section!r} section: {exc}") from exc


def parse_run_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("configuration root must be an object")
    unknown = set(doc) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown configuration sections: {sorted(unknown)}")
    kwargs = {}
    for name, f in _SECTIONS.items():
        cls = f.default_factory
        if name in doc:
            kwargs[name] = _parse_section(cls, doc[name], name)
    return RunConfig(**kwargs)


def load_run_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc.msg} at line {exc.lineno})") from exc
    return parse_run_config(doc)


def apply_overrides(config: RunConfig, overrides: list[str]) -> RunConfig:
    """Apply ``section.key=value`` overrides; values parse as JSON scalars."""
    doc = {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        path, raw = item.split("=", 1)
        parts = path.split(".")
        if len(parts) != 2:
            raise ConfigError(f"override path {path!r} must be section.key")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw  # bare strings allowed
        doc.setdefault(parts[0], {})[parts[1]] = value

    merged = {}
    for name in _SECTIONS:
        section = getattr(config, name)
        merged[name] = {f.name: getattr(section, f.name) for f in dataclasses.fields(section)}
    for name, section_doc in doc.items():
        if name not in merged:
            raise ConfigError(f"unknown configuration sections: [{name!r}]")
        merged[name].update(section_doc)
    return parse_run_config(merged)
