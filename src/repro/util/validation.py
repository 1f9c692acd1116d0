"""Canonical JSON normalisation for declarative specs and content hashes."""

from __future__ import annotations

from typing import Any

__all__ = ["canonical_json_value"]


def canonical_json_value(value: Any, name: str = "value") -> Any:
    """Deep-normalise ``value`` to plain JSON-native Python.

    Tuples become lists, numpy scalars become ``int``/``float``/``bool``,
    and anything JSON cannot represent raises :class:`TypeError` naming
    the offending path.  Declarative specs (fault plans, trace specs,
    DSE parameter points) pass through here at construction time so that
    a config equals its own serialise→deserialise round-trip and content
    hashes are computed over what actually persists.

    >>> canonical_json_value({"a": (1, 2)})
    {'a': [1, 2]}
    """
    if value is None or isinstance(value, (str, bool, int, float)):
        return value
    # Numpy scalars (np.float64, np.int64, np.bool_) expose .item();
    # duck-type so this module stays dependency-free.
    item = getattr(value, "item", None)
    if item is not None and getattr(value, "shape", None) == ():
        return canonical_json_value(value.item(), name)
    if isinstance(value, (list, tuple)):
        return [
            canonical_json_value(v, f"{name}[{i}]") for i, v in enumerate(value)
        ]
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise TypeError(
                    f"{name} has non-string key {k!r}; JSON objects need "
                    "string keys"
                )
            out[k] = canonical_json_value(v, f"{name}.{k}")
        return out
    raise TypeError(
        f"{name} contains non-JSON value {value!r} "
        f"({type(value).__name__})"
    )
