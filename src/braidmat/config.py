"""JSON configuration ingestion for the CLI and the verification suite.

Braid-family config::

    {"N": 4, "mode": "real" | "unitary",
     "parameters": [{"i": 1, "j": 2, "epsilon": "+", "value": 0.7}, ...],
     "symmetry_overrides": [{"i": 1, "j": 3, "epsilon": "+", "value": 1.0}]}

Parameter keys are restricted to canonical representatives (i, j up to
ceil(N/2)); values are finite numbers or exact-rational strings like
"1/3".  N, n, i, and j must be JSON integers: 4.7 or true is refused,
never truncated or coerced.
``symmetry_overrides`` is optional and patches raw grid entries *after*
mirror-symmetry expansion; it exists to express deliberate constraint
violations for negative-control runs and voids all symmetry guarantees.

Reference-family config::

    {"reference": true, "n": 2}
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from .braid import MAX_SIDE, BraidFamily, make_parameters
from .errors import ConfigError


@dataclass(frozen=True)
class ReferenceConfig:
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError(f"reference half-dimension must be >= 1, got {self.n}")
        if 2 * self.n > MAX_SIDE:
            raise ConfigError(f"reference side length {2 * self.n} exceeds {MAX_SIDE}")


Config = Union[BraidFamily, ReferenceConfig]


def parse_config(obj: object) -> Config:
    """Validate a decoded JSON object into a BraidFamily or ReferenceConfig."""
    if not isinstance(obj, dict):
        raise ConfigError(f"config must be a JSON object, got {type(obj).__name__}")
    if obj.get("reference"):
        return ReferenceConfig(n=_integer(obj, "n", "reference config"))
    dim = _integer(obj, "N", "config")
    if "mode" not in obj:
        raise ConfigError("config requires 'mode'")
    mode = obj["mode"]
    values = {}
    for entry in _entry_list(obj.get("parameters", []), "parameters"):
        key, value = _parse_entry(entry)
        if key in values:
            raise ConfigError(f"duplicate parameter class {entry}")
        values[key] = value
    overrides = []
    for entry in _entry_list(obj.get("symmetry_overrides", []), "symmetry_overrides"):
        key, value = _parse_entry(entry)
        overrides.append((key[0], key[1], key[2], value))
    return make_parameters(dim, mode, values, overrides=tuple(overrides))


def _integer(obj: dict, key: str, owner: str) -> int:
    if key not in obj:
        raise ConfigError(f"{owner} requires an integer {key!r}")
    raw = obj[key]
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigError(f"{key!r} must be an integer, got {raw!r}")
    return raw


def _entry_list(raw: object, field_name: str) -> list:
    if not isinstance(raw, list):
        raise ConfigError(f"'{field_name}' must be a list")
    return raw


def _parse_entry(entry: object) -> tuple[tuple[int, int, int], object]:
    if not isinstance(entry, dict):
        raise ConfigError(f"parameter entry must be an object, got {entry!r}")
    try:
        epsilon = entry["epsilon"]
        value = entry["value"]
    except KeyError as exc:
        raise ConfigError(f"malformed parameter entry {entry!r}: {exc}") from exc
    i = _integer(entry, "i", "parameter entry")
    j = _integer(entry, "j", "parameter entry")
    if epsilon not in ("+", "-"):
        raise ConfigError(f"epsilon must be '+' or '-', got {epsilon!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"parameter value must be a number or 'p/q', got {value!r}")
    return (i, j, +1 if epsilon == "+" else -1), value


def load_config(path: str | Path) -> Config:
    """Read and parse a config file; all failures become ConfigError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(obj)
