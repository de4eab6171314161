"""Dataclass ↔ stable JSON, with typed errors for what cannot be parsed.

The report files (``repro serve report``, ``repro shard report``) are
flat dataclasses, optionally holding lists of flat dataclasses.  One
codec writes them — a ``schema`` tag next to the fields, sorted keys,
``indent=2``, so equal reports are equal bytes — and reads them back,
turning every way a file can be wrong (not JSON, not an object, another
schema, a missing field) into a :class:`ConfigurationError` naming it.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from typing import Any, TypeVar

from repro.errors import ConfigurationError

T = TypeVar("T")


def parse_object(text: str | bytes, what: str) -> dict[str, Any]:
    """``text`` as a JSON object, or a :class:`ConfigurationError`."""
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigurationError(f"{what}: not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"{what}: expected a JSON object, not {type(data).__name__}"
        )
    return data


def dumps(report: Any, schema: int) -> str:
    """The stable JSON form of a report dataclass, tagged with ``schema``."""
    return json.dumps(
        {"schema": schema, **dataclasses.asdict(report)}, sort_keys=True, indent=2
    )


def loads(cls: type[T], text: str | bytes, schema: int, what: str) -> T:
    """Rebuild a ``cls`` from :func:`dumps` output; ``what`` names the source."""
    data = parse_object(text, what)
    if data.get("schema") != schema:
        raise ConfigurationError(
            f"{what}: unsupported schema {data.get('schema')!r} "
            f"(a {cls.__name__} is schema {schema})"
        )
    return _build(cls, data, what)


def _build(cls: type[T], data: Any, what: str) -> T:
    if not isinstance(data, dict):
        raise ConfigurationError(f"{what}: a {cls.__name__} must be a JSON object")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for field in dataclasses.fields(cls):
        if field.name not in data:
            raise ConfigurationError(
                f"{what}: {cls.__name__} is missing {field.name!r}"
            )
        value = data[field.name]
        hint = hints[field.name]
        if typing.get_origin(hint) is list:
            (item,) = typing.get_args(hint)
            if not isinstance(value, list):
                raise ConfigurationError(f"{what}: {field.name!r} must be a list")
            if dataclasses.is_dataclass(item):
                value = [_build(item, entry, what) for entry in value]
        kwargs[field.name] = value
    return cls(**kwargs)
