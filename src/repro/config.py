"""Shared configuration/report protocol for every platform flavour.

Before this module, ``PlatformConfig``, ``NetworkedConfig``, and
``Fleet`` each invented their own config validation and report shapes.
Now they all speak one surface:

* **Validators** — the range checks both configs duplicated, factored
  into ``check_*`` helpers that raise :class:`~repro.errors.ConfigError`
  with the exact historical messages (existing tests assert on them).
* **BaseConfig** — ``validate()`` + ``as_dict()`` (JSON-ready, scrubbed
  of non-primitive fields) + a ``seed`` every config already carries.
* **BaseReport** — ``as_dict()`` (uniform JSON export) and
  ``snapshot()`` (the report plus the current ``repro.obs`` registry
  snapshot), so ``repro run --json`` and ``repro stats`` render any
  platform's output the same way.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, Optional

from repro.errors import ConfigError

__all__ = [
    "BaseConfig", "BaseReport",
    "check_at_least_one", "check_non_negative", "check_positive",
    "check_unit_interval", "scrub_value",
]


# -- validators ---------------------------------------------------------------

def check_at_least_one(value: int, message: str) -> None:
    """E.g. ``check_at_least_one(n_pods, "need at least one pod")``."""
    if value < 1:
        raise ConfigError(message)


def check_positive(value: float, name: str,
                   message: Optional[str] = None) -> None:
    """Reject zero/negative knobs (rounds, budgets, intervals)."""
    if value <= 0:
        raise ConfigError(message or f"{name} must be positive")


def check_non_negative(value: float, message: str) -> None:
    """Reject negative knobs where zero is meaningful (0 = auto)."""
    if value < 0:
        raise ConfigError(message)


def check_unit_interval(value: float, name: str,
                        include_zero: bool = True,
                        include_one: bool = False) -> None:
    """Range-check a rate/fraction against [0, 1] with open/closed ends,
    phrasing the message with interval notation ("loss_rate must be in
    [0, 1)") exactly as the historical per-config validators did."""
    low_ok = value >= 0.0 if include_zero else value > 0.0
    high_ok = value <= 1.0 if include_one else value < 1.0
    if not (low_ok and high_ok):
        raise ConfigError(
            f"{name} must be in {'[' if include_zero else '('}0, 1"
            f"{']' if include_one else ')'}")


# -- export helpers -----------------------------------------------------------

def scrub_value(value: object) -> object:
    """Fold one field value to a JSON-ready primitive.

    Dataclasses recurse, enums export their value, and other compound
    objects (capture policies, trackers) fold to their ``name`` or
    class name — configs/reports stay serializable without every
    helper type needing a protocol.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): scrub_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=str) if isinstance(
            value, (set, frozenset)) else value
        return [scrub_value(v) for v in items]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: scrub_value(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    name = getattr(value, "name", None)
    if isinstance(name, str):
        return name
    return type(value).__name__


class BaseConfig:
    """Protocol every platform config adopts (mixin for dataclasses)."""

    seed: int = 0

    def validate(self) -> None:
        """Raise :class:`ConfigError` on out-of-range knobs."""

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view of every dataclass field."""
        if dataclasses.is_dataclass(self):
            return {f.name: scrub_value(getattr(self, f.name))
                    for f in dataclasses.fields(self)}
        return {key: scrub_value(value)
                for key, value in sorted(vars(self).items())
                if not key.startswith("_")}


class BaseReport:
    """Protocol every platform report adopts (mixin for dataclasses)."""

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view; subclasses override to shape their export."""
        if dataclasses.is_dataclass(self):
            return {f.name: scrub_value(getattr(self, f.name))
                    for f in dataclasses.fields(self)}
        return {key: scrub_value(value)
                for key, value in sorted(vars(self).items())
                if not key.startswith("_")}

    def snapshot(self) -> Dict[str, object]:
        """The report plus the live ``repro.obs`` metrics snapshot."""
        from repro.obs import get_registry
        return {"report": self.as_dict(),
                "obs": get_registry().snapshot()}
