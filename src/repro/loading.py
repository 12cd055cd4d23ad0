"""Loading what data names: strict JSON spec objects and
``module:attribute`` import paths — and the one atomic JSON writer
behind every file another run may read back.

Every declarative spec is a JSON *object* whose unknown fields are
rejected and whose loader reports each problem as the spec's own error
class; that code lives here once, parameterised by the error class and
the noun used in messages.  This module imports no workload package.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
from typing import Any, Callable, TypeVar

T = TypeVar("T")


def resolve_attribute(path: str) -> Any:
    """What a ``module:attribute`` path names *now*: looked up at call
    time, so a wrapper patched onto the module (the perf ledger's
    spans, a test's monkeypatch) is what comes back."""
    module_name, _, attribute = path.partition(":")
    return getattr(importlib.import_module(module_name), attribute)


def require_object(
    data: Any, noun: str, error: type[Exception], source: str = ""
) -> dict:
    if not isinstance(data, dict):
        raise error(f"{source}{noun} must be an object, got {type(data).__name__}")
    return data


def read_json_object(path: str, noun: str, error: type[Exception]) -> dict:
    """The JSON object stored in ``path``; malformed JSON and non-object
    documents raise ``error`` naming the file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise error(f"{path}: invalid JSON: {exc}") from None
    return require_object(data, noun, error, source=f"{path}: ")


def write_json_atomic(path: str, doc: dict) -> None:
    """Write ``doc`` as sorted-key JSON (NaN refused) through a
    per-process temp file and ``os.replace``: a concurrent reader, or a
    run killed mid-write, sees the previous file or the new one whole."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")
    os.replace(tmp, path)


def spec_digest(doc: dict) -> str:
    """SHA-256 of ``doc`` as canonical JSON (sorted keys, no spaces): a
    spec's identity, whatever the key order or layout of its file."""
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def dataclass_from_object(
    cls: type[T], data: Any, noun: str, error: type[Exception],
    **convert: Callable[[Any], Any],
) -> T:
    """``cls(**data)`` for a JSON object; ``convert`` names the fields
    whose JSON value is coerced first (lists to tuples).  A non-object,
    an unknown field and a constructor ``TypeError`` all raise ``error``."""
    payload = dict(require_object(data, noun, error))
    known = {f.name for f in dataclasses.fields(cls)}  # type: ignore[arg-type]
    unknown = set(payload) - known
    if unknown:
        raise error(f"unknown {noun} field(s) {sorted(unknown)}")
    for name, coerce in convert.items():
        if name in payload:
            payload[name] = coerce(payload[name])
    try:
        return cls(**payload)
    except TypeError as exc:
        raise error(str(exc)) from None
