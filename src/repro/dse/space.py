"""Typed parameter spaces mapped declaratively onto scenario configs.

A :class:`ParameterSpace` is an ordered set of named dimensions —
continuous, integer, or categorical — each bound to one field of
:class:`~repro.experiments.scenario.ScenarioConfig` by a dotted path
(``"nlr.gamma"``, ``"aodv.rerr_rate_limit_per_s"``, ``"gossip_p"``).
A *point* is a plain ``{dim_name: value}`` dict; :meth:`ParameterSpace.bind`
turns base config + point into a fully validated ``ScenarioConfig`` by
round-tripping through the config's own JSON serialisation, so every
constructor check (gamma bounds, p_min ≤ p_max, …) fires before any
simulation is scheduled.

Spaces themselves serialise to JSON (:meth:`to_dict`/:meth:`from_dict`),
which is how the ``repro-dse`` CLI defines them and how screening state
files record exactly what was explored.

The space draws no randomness: the Latin-hypercube design takes an explicit
:class:`numpy.random.Generator` from :func:`seeded_rng`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.experiments.scenario import ScenarioConfig
from repro.experiments.serialization import config_from_dict, config_to_dict
from repro.util.validation import canonical_json_value

__all__ = [
    "ContinuousDim",
    "IntegerDim",
    "CategoricalDim",
    "ParameterSpace",
    "point_key",
    "seeded_rng",
]

#: A point is a plain mapping of dimension name → JSON-native value.
Point = dict[str, Any]


def point_key(point: Mapping[str, Any]) -> str:
    """Canonical JSON identity of a point (sorted keys, exact floats)."""
    return json.dumps(dict(point), sort_keys=True)


@dataclass(frozen=True, slots=True)
class ContinuousDim:
    """A real-valued dimension on the closed interval [low, high]."""

    name: str
    field: str
    low: float
    high: float

    kind = "continuous"

    def __post_init__(self) -> None:
        _check_name(self.name, self.field)
        if not (
            math.isfinite(self.low)
            and math.isfinite(self.high)
            and self.low < self.high
        ):
            raise ValueError(
                f"dimension {self.name!r}: need finite low < high, "
                f"got [{self.low!r}, {self.high!r}]"
            )

    def clip(self, value: float) -> float:
        return float(min(self.high, max(self.low, float(value))))

    def levels(self, n: int) -> list[float]:
        """``n`` evenly spaced factorial levels including both bounds."""
        if n < 2:
            return [float((self.low + self.high) / 2.0)]
        return [float(v) for v in np.linspace(self.low, self.high, n)]

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name, "field": self.field, "type": self.kind,
            "low": self.low, "high": self.high,
        }


@dataclass(frozen=True, slots=True)
class IntegerDim:
    """An integer dimension on the closed range [low, high]."""

    name: str
    field: str
    low: int
    high: int

    kind = "integer"

    def __post_init__(self) -> None:
        _check_name(self.name, self.field)
        if not (
            isinstance(self.low, int) and isinstance(self.high, int)
            and self.low < self.high
        ):
            raise ValueError(
                f"dimension {self.name!r}: need integer low < high, "
                f"got [{self.low!r}, {self.high!r}]"
            )

    def clip(self, value: float) -> int:
        return int(min(self.high, max(self.low, int(round(float(value))))))

    def levels(self, n: int) -> list[int]:
        """Up to ``n`` distinct evenly spaced integer levels; one level is
        the rounded midpoint, as for a continuous dimension."""
        if n < 2:
            return [int(round((self.low + self.high) / 2.0))]
        raw = np.linspace(self.low, self.high, min(n, self.high - self.low + 1))
        out: list[int] = []
        for v in raw:
            iv = int(round(float(v)))
            if not out or iv != out[-1]:
                out.append(iv)
        return out

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name, "field": self.field, "type": self.kind,
            "low": self.low, "high": self.high,
        }


@dataclass(frozen=True, slots=True)
class CategoricalDim:
    """A dimension over an explicit list of JSON-native choices."""

    name: str
    field: str
    choices: tuple[Any, ...]

    kind = "categorical"

    def __post_init__(self) -> None:
        _check_name(self.name, self.field)
        choices = tuple(self.choices)
        object.__setattr__(self, "choices", choices)
        if len(choices) < 2:
            raise ValueError(
                f"dimension {self.name!r}: need ≥ 2 choices, got {choices!r}"
            )
        if len({json.dumps(c, sort_keys=True) for c in choices}) != len(choices):
            raise ValueError(f"dimension {self.name!r}: duplicate choices")

    def clip(self, value: Any) -> Any:
        if value not in self.choices:
            raise ValueError(
                f"dimension {self.name!r}: {value!r} not among {self.choices!r}"
            )
        return value

    def levels(self, n: int) -> list[Any]:
        return list(self.choices)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name, "field": self.field, "type": self.kind,
            "choices": list(self.choices),
        }


Dimension = ContinuousDim | IntegerDim | CategoricalDim

_DIM_TYPES = {
    "continuous": ContinuousDim,
    "integer": IntegerDim,
    "categorical": CategoricalDim,
}


def _check_name(name: str, field_path: str) -> None:
    if not name or not isinstance(name, str):
        raise ValueError(f"dimension name must be a non-empty string, got {name!r}")
    if not field_path or not isinstance(field_path, str):
        raise ValueError(
            f"dimension {name!r}: field must be a dotted config path, "
            f"got {field_path!r}"
        )


@dataclass(slots=True)
class ParameterSpace:
    """An ordered, named collection of dimensions bound to config fields."""

    name: str
    dimensions: list[Dimension] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.dimensions:
            raise ValueError(f"space {self.name!r} has no dimensions")
        seen: set[str] = set()
        fields: set[str] = set()
        for dim in self.dimensions:
            if dim.name in seen:
                raise ValueError(f"duplicate dimension name {dim.name!r}")
            if dim.field in fields:
                raise ValueError(
                    f"two dimensions bind the same field {dim.field!r}"
                )
            seen.add(dim.name)
            fields.add(dim.field)

    # -- serialisation -------------------------------------------------- #
    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "dimensions": [d.to_dict() for d in self.dimensions],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ParameterSpace":
        if not isinstance(data, Mapping):
            raise ValueError(f"space must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - {"name", "dimensions"}
        if unknown:
            raise ValueError(f"unknown space keys: {sorted(unknown)}")
        dims: list[Dimension] = []
        for i, dd in enumerate(data.get("dimensions", [])):
            dd = dict(dd)
            kind = dd.pop("type", None)
            dim_cls = _DIM_TYPES.get(kind)
            if dim_cls is None:
                raise ValueError(
                    f"dimension #{i}: unknown type {kind!r}; choose from "
                    f"{sorted(_DIM_TYPES)}"
                )
            if kind == "categorical":
                dd["choices"] = tuple(dd.get("choices", ()))
            try:
                dims.append(dim_cls(**dd))
            except TypeError as exc:
                raise ValueError(f"dimension #{i}: {exc}") from exc
        return cls(name=data.get("name", "space"), dimensions=dims)

    @classmethod
    def load(cls, path: str | Path) -> "ParameterSpace":
        with Path(path).open() as fh:
            return cls.from_dict(json.load(fh))

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    # -- point algebra -------------------------------------------------- #
    def __len__(self) -> int:
        return len(self.dimensions)

    def dim(self, name: str) -> Dimension:
        for d in self.dimensions:
            if d.name == name:
                return d
        raise KeyError(name)

    def validate_point(self, point: Mapping[str, Any]) -> Point:
        """Clip/check ``point`` against every dimension; returns a copy."""
        extra = set(point) - {d.name for d in self.dimensions}
        if extra:
            raise ValueError(f"point has unknown dimensions: {sorted(extra)}")
        missing = {d.name for d in self.dimensions} - set(point)
        if missing:
            raise ValueError(f"point is missing dimensions: {sorted(missing)}")
        return {
            d.name: canonical_json_value(d.clip(point[d.name]), d.name)
            for d in self.dimensions
        }

    # -- config binding -------------------------------------------------- #
    def bind(self, base: ScenarioConfig, point: Mapping[str, Any]) -> ScenarioConfig:
        """Base config + point → fully validated :class:`ScenarioConfig`.

        Goes through the config's own dict serialisation, so nested fields
        address naturally by dotted path and *every* constructor check
        (``NlrConfig`` bounds, ``AodvConfig`` bounds, …) runs before the
        config can reach a worker.
        """
        point = self.validate_point(point)
        data = config_to_dict(base)
        for d in self.dimensions:
            _set_path(data, d.field, point[d.name], d.name)
        return config_from_dict(data)


def _set_path(data: dict[str, Any], path: str, value: Any, dim_name: str) -> None:
    parts = path.split(".")
    node: Any = data
    for i, part in enumerate(parts[:-1]):
        node = node.get(part) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            raise ValueError(
                f"dimension {dim_name!r}: config has no nested section "
                f"{'.'.join(parts[: i + 1])!r}"
            )
    leaf = parts[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ValueError(
            f"dimension {dim_name!r}: config has no field {path!r}"
        )
    node[leaf] = value


def seeded_rng(*entropy: int) -> np.random.Generator:
    """A PCG64 generator keyed on explicit integers (screening seed, stage,
    index) — a re-run derives the same stream, so no RNG state ever needs
    persisting."""
    return np.random.default_rng(np.random.SeedSequence(list(entropy)))
