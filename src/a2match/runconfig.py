"""JSON run configuration with strict key checking.

Four optional sections mirror the dataclass configs: "synth", "network",
"train", "ransac". Unknown sections or keys, and values of the wrong type
(a float or boolean for an integer field, a non-number for a float field),
fail with an error naming the offending key.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .network import NetworkConfig
from .posemetrics import RansacConfig
from .synth import InvalidConfig, SynthConfig, read_json
from .training import TrainConfig

SECTIONS = {
    "synth": SynthConfig,
    "network": NetworkConfig,
    "train": TrainConfig,
    "ransac": RansacConfig,
}

# JSON value types accepted per field annotation (a string, as the configs'
# modules defer annotations); bool, an int subclass, is rejected separately.
FIELD_TYPES = {"int": (int,), "float": (int, float)}


@dataclass
class RunConfig:
    synth: SynthConfig = field(default_factory=SynthConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    ransac: RansacConfig = field(default_factory=RansacConfig)


def _build_section(name: str, cls, data: dict):
    if not isinstance(data, dict):
        raise InvalidConfig(f"config section '{name}' must be an object")
    known = {f.name: f.type for f in dataclasses.fields(cls)}
    for key, value in data.items():
        if key not in known:
            raise InvalidConfig(f"unknown config key: {name}.{key}")
        allowed = FIELD_TYPES[known[key]]
        if isinstance(value, bool) or not isinstance(value, allowed):
            kind = "an integer" if known[key] == "int" else "a number"
            raise InvalidConfig(f"config key {name}.{key} must be {kind}, got {value!r}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise InvalidConfig(f"invalid '{name}' config: {exc}") from exc


def parse_run_config(obj: dict) -> RunConfig:
    if not isinstance(obj, dict):
        raise InvalidConfig("run config must be a JSON object")
    for key in obj:
        if key not in SECTIONS:
            raise InvalidConfig(f"unknown config key: {key}")
    built = {}
    for name, cls in SECTIONS.items():
        built[name] = _build_section(name, cls, obj.get(name, {}))
    return RunConfig(**built)


def load_run_config(path=None) -> RunConfig:
    if path is None:
        return RunConfig()
    return parse_run_config(read_json(path, "config"))
