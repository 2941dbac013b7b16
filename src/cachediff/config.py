"""Run configuration: defaults, JSON round-trip, dotted overrides.

A run is fully described by one :class:`RunConfig`.  Configs serialize
to plain JSON; ``--set section.field=value`` overrides coerce strings to
the type of the field they replace (comma lists for tuple fields).  Each
value must have the type of its field's default: an int field takes an
int, a float field an int or a float, a bool field a bool, a str field a
string, and a tuple field a list of its default's item type; bools count
as bools only.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .engine import Strategy
from .errors import ConfigError
from .schedule import NoiseSchedule, TimestepPlan, build_schedule, build_timestep_plan
from .unet import UNetConfig


@dataclass(frozen=True)
class ScheduleConfig:
    T: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 0.02
    steps: int = 40
    block_size: int = 3
    t_thresh_fraction: float = 0.6


@dataclass(frozen=True)
class SeedsConfig:
    weights: int = 0
    noise: int = 0


@dataclass(frozen=True)
class RunSection:
    total_frames: int = 4
    out_dir: str = "out"

    def __post_init__(self):
        if self.total_frames < 1:
            raise ConfigError(f"total_frames must be >= 1, got {self.total_frames}")


@dataclass(frozen=True)
class RunConfig:
    unet: UNetConfig = field(default_factory=UNetConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    strategy: Strategy = field(default_factory=Strategy)
    seeds: SeedsConfig = field(default_factory=SeedsConfig)
    mask: str = "frac:0.4"
    run: RunSection = field(default_factory=RunSection)

    def build_schedule(self) -> NoiseSchedule:
        s = self.schedule
        return build_schedule(s.T, s.beta_start, s.beta_end)

    def build_plan(self, sched: NoiseSchedule) -> TimestepPlan:
        s = self.schedule
        return build_timestep_plan(sched, s.steps, s.block_size, s.t_thresh_fraction)

    def to_dict(self) -> dict:
        def clean(obj):
            if isinstance(obj, tuple):
                return [clean(v) for v in obj]
            if isinstance(obj, dict):
                return {k: clean(v) for k, v in obj.items()}
            if isinstance(obj, list):
                return [clean(v) for v in obj]
            return obj

        return clean(dataclasses.asdict(self))


_SECTIONS = {
    "unet": UNetConfig,
    "schedule": ScheduleConfig,
    "strategy": Strategy,
    "seeds": SeedsConfig,
    "run": RunSection,
}

_KINDS = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _fits(value, kind: type) -> bool:
    """Whether JSON ``value`` fits a field of type ``kind``: a bool fits only a bool."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _build_section(cls, data: dict, section: str):
    defaults = cls()
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown key(s) in {section}: {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        default = getattr(defaults, name)
        if isinstance(default, tuple):
            kind = type(default[0])
            if not isinstance(value, (list, tuple)) or not all(_fits(v, kind) for v in value):
                raise ConfigError(
                    f"{section}.{name} must be a list, each item {_KINDS[kind]}, got {value!r}")
            value = tuple(value)
        elif not _fits(value, type(default)):
            raise ConfigError(f"{section}.{name} must be {_KINDS[type(default)]}, got {value!r}")
        kwargs[name] = value
    return cls(**kwargs)


def config_from_dict(data: dict) -> RunConfig:
    """Build a validated RunConfig from plain JSON data."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    unknown = set(data) - (set(_SECTIONS) | {"mask"})
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {sorted(unknown)}")
    kwargs = {}
    for section, cls in _SECTIONS.items():
        if section in data:
            if not isinstance(data[section], dict):
                raise ConfigError(f"section {section} must be an object")
            kwargs[section] = _build_section(cls, data[section], section)
    if "mask" in data:
        if not isinstance(data["mask"], str):
            raise ConfigError("mask must be a string spec")
        kwargs["mask"] = data["mask"]
    return RunConfig(**kwargs)


def _coerce(raw: str, current) -> object:
    if isinstance(current, bool):
        low = raw.lower()
        if low in ("true", "1", "on", "yes"):
            return True
        if low in ("false", "0", "off", "no"):
            return False
        raise ConfigError(f"expected a boolean, got {raw!r}")
    if isinstance(current, int):
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"expected an integer, got {raw!r}") from exc
    if isinstance(current, float):
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"expected a number, got {raw!r}") from exc
    if isinstance(current, list):
        parts = [p for p in raw.split(",") if p != ""]
        if current and isinstance(current[0], int):
            try:
                return [int(p) for p in parts]
            except ValueError as exc:
                raise ConfigError(f"expected integers, got {raw!r}") from exc
        return parts
    return raw


def apply_overrides(data: dict, sets: list[str]) -> dict:
    """Apply ``section.field=value`` overrides onto a config dict."""
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form path=value")
        path, raw = item.split("=", 1)
        keys = path.split(".")
        node = data
        for k in keys[:-1]:
            if not isinstance(node, dict) or k not in node:
                raise ConfigError(f"unknown config path {path!r}")
            node = node[k]
        leaf = keys[-1]
        if not isinstance(node, dict) or leaf not in node:
            raise ConfigError(f"unknown config path {path!r}")
        node[leaf] = _coerce(raw, node[leaf])
    return data


def load_config(path: str | Path | None, sets: list[str] | None = None) -> RunConfig:
    """Load a config file (or defaults) and apply overrides."""
    if path is None:
        data = RunConfig().to_dict()
    else:
        try:
            data = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config root in {path} must be an object")
        base = RunConfig().to_dict()
        for section in _SECTIONS:
            if isinstance(data.get(section), dict):
                data[section] = {**base[section], **data[section]}
        data = {**base, **data}
    if sets:
        apply_overrides(data, sets)
    return config_from_dict(data)
