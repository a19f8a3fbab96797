"""Declarative run configuration: one JSON file covering scene generation,
model dimensions, training, data splits, and evaluation.

Each section is a frozen settings dataclass that checks its own fields on
construction: their types, by ``diffcore.check_field_types``, and their
ranges. The parser only maps JSON onto them. It refuses unknown sections
and keys, leaves every field it is not given at its default, and applies
dotted-path overrides (``train.lr_initial=0.01``) to a given config. Every
refusal is a ConfigError.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .agent import ModelDims
from .diffcore import check_field_types, require_positive
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
        check_field_types(self)
        if min(self.selector_hidden, self.regressor_hidden) < 1:
            raise InvalidInput("selector_hidden and regressor_hidden must be >= 1")


@dataclass(frozen=True)
class DataConfig:
    seed: int = 2026
    train_count: int = 50
    test_count: int = 10

    def __post_init__(self):
        check_field_types(self)
        if min(self.train_count, self.test_count) < 1:
            raise InvalidInput("train_count and test_count must be >= 1")
        require_positive("seed", self.seed, allow_zero=True)  # numpy refuses a negative seed


@dataclass(frozen=True)
class EvalConfig:
    grid_step: float = DEFAULT_GRID_STEP
    dp_smooth_weight: float = DEFAULT_DP_SMOOTH_WEIGHT
    h_span: float = DEFAULT_H_SPAN

    def __post_init__(self):
        check_field_types(self)
        if not (0 < self.grid_step <= 180 and 0 < self.h_span <= 360 and self.dp_smooth_weight >= 0):
            raise InvalidInput("grid_step in (0, 180], h_span in (0, 360], dp_smooth_weight >= 0")


@dataclass(frozen=True)
class PathsConfig:
    out_dir: str = "runs"

    def __post_init__(self):
        check_field_types(self)


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


def _parse_section(base, mapping: dict, section: str):
    if not isinstance(mapping, dict):
        raise ConfigError(f"section {section!r} must be an object")
    unknown = set(mapping) - {f.name for f in dataclasses.fields(base)}
    if unknown:
        raise ConfigError(f"unknown keys in {section!r}: {sorted(unknown)}")
    try:
        return dataclasses.replace(base, **mapping)
    except InvalidInput as exc:
        raise ConfigError(f"invalid {section!r} section: {exc}") from exc


def parse_run_config(doc: dict, base: RunConfig = RunConfig()) -> RunConfig:
    """``base`` with the sections of the JSON object ``doc`` mapped onto it."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration root must be an object")
    unknown = set(doc) - {f.name for f in dataclasses.fields(base)}
    if unknown:
        raise ConfigError(f"unknown configuration sections: {sorted(unknown)}")
    sections = {name: _parse_section(getattr(base, name), doc[name], name) for name in doc}
    return dataclasses.replace(base, **sections)


def load_run_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # also a byte that is not UTF-8, or an integer of too many digits
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return parse_run_config(doc)


def apply_overrides(config: RunConfig, overrides: list[str]) -> RunConfig:
    """Apply ``section.key=value`` overrides; values parse as JSON scalars."""
    doc = {}
    for item in overrides:
        path, eq, raw = item.partition("=")
        section, dot, key = path.partition(".")
        if not eq or not dot or "." in key:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        try:
            value = json.loads(raw)
        except ValueError:
            value = raw  # bare strings allowed
        doc.setdefault(section, {})[key] = value
    return parse_run_config(doc, config)
