"""Loading what data names: strict JSON spec objects and
``module:attribute`` import paths — and the one JSON encoder, the one
field check and the one atomic JSON writer behind every document
another run may read back.

Every declarative spec is a JSON *object* whose unknown fields are
rejected and whose loader reports each problem as the spec's own error
class; that code lives here once, parameterised by the error class and
the noun used in messages.  A record becomes its JSON document through
:func:`plain`, and a reader checks a document's required fields with
:func:`field_problems`.  This module imports no workload package.

A cached result (a sweep shard, an ops checkpoint manifest) is only
valid for the spec and the code that computed it, so it is written by
:func:`write_stamped` — which stamps it with both — and read back by
:func:`read_stamped`, which refuses it when either differs.  Any change
to an artifact's layout is an edit under ``repro/``, so the code
fingerprint is its format version too.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import functools
import hashlib
import importlib
import json
import os
import pathlib
from typing import Any, Callable, Iterator, Optional, TypeVar, Union

T = TypeVar("T")


def resolve_attribute(path: str) -> Any:
    """What a ``module:attribute`` path names *now*: looked up at call
    time, so a wrapper patched onto the module (the perf ledger's
    spans, a test's monkeypatch) is what comes back."""
    module_name, _, attribute = path.partition(":")
    return getattr(importlib.import_module(module_name), attribute)


def plain(value: Any) -> Any:
    """``value`` as JSON-ready data: a dataclass becomes the object of
    its fields in declaration order, a tuple or list a list, a dict a
    copied dict and an enum its ``name``, converted all the way down;
    anything else comes back as it is."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: plain(getattr(value, f.name)) for f in dataclasses.fields(value)
        }
    if isinstance(value, (tuple, list)):
        return [plain(item) for item in value]
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, enum.Enum):
        return value.name
    return value


def field_problems(
    doc: dict, fields: dict[str, Union[type, tuple[type, ...]]]
) -> list[str]:
    """One ``missing field 'x'`` or ``field 'x' has type T`` line per
    entry of ``fields`` (name -> accepted type or types) that ``doc``
    lacks or holds with another type, in ``fields`` order."""
    problems = []
    for name, accepted in fields.items():
        if name not in doc:
            problems.append(f"missing field {name!r}")
        elif not isinstance(doc[name], accepted):
            problems.append(f"field {name!r} has type {type(doc[name]).__name__}")
    return problems


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


@contextlib.contextmanager
def replacing(path: str) -> Iterator[str]:
    """A per-process temp path beside ``path``, moved onto ``path`` by
    ``os.replace`` when the block exits cleanly and removed when it (or
    the replace) raises: ``path`` holds the previous file or the new one
    whole, and no temp file outlives the block.  The temp path ends in
    ``.gz`` when ``path`` does, so a writer that picks its format by
    suffix writes the same format."""
    tmp = f"{path}.tmp.{os.getpid()}" + (".gz" if path.endswith(".gz") else "")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        pathlib.Path(tmp).unlink(missing_ok=True)
        raise


def write_json_atomic(path: str, doc: dict) -> None:
    """Write ``doc`` as sorted-key JSON (NaN refused) through
    :func:`replacing`: a concurrent reader, or a run killed mid-write,
    sees the previous file or the new one whole.  A refused document
    raises before the temp file exists."""
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with replacing(path) as tmp, open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)


@functools.cache
def code_fingerprint() -> str:
    """SHA-256 over every ``repro/**/*.py`` (relative path + bytes, in
    sorted path order), computed once per process."""
    root = pathlib.Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def write_stamped(path: str, doc: dict, spec_hash: str) -> dict:
    """Write ``doc`` stamped with ``spec_hash`` and this build's
    :func:`code_fingerprint` through :func:`write_json_atomic`; returns
    the stamped document."""
    stamped = dict(doc, spec_hash=spec_hash, code_fingerprint=code_fingerprint())
    write_json_atomic(path, stamped)
    return stamped


#: How a stamp that differs reads, in the order :func:`read_stamped`
#: checks them.
_STAMP_MISMATCH = {
    "code_fingerprint": "was written by code fingerprint {found!r}, not this build's {expected!r}",
    "spec_hash": "was written for spec {found}, a different spec than {expected}",
}


def read_stamped(
    path: str, noun: str, error: type[Exception],
    spec_hash: Optional[str] = None, check: bool = True,
) -> dict:
    """The document :func:`write_stamped` wrote at ``path``.

    A missing file raises ``FileNotFoundError`` for the caller's policy.
    An unreadable file or a non-object raises ``error``, and so — unless
    ``check`` is off — does a document written by other code or, when
    ``spec_hash`` is given, for another spec; each message names
    ``path`` and the first stamp that differs."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        raise
    except (OSError, ValueError) as exc:    # truncated, not JSON, not UTF-8
        raise error(f"unreadable {noun} {path!r}: {exc}") from None
    if not isinstance(doc, dict):
        raise error(f"unreadable {noun} {path!r}: not a JSON object")
    if not check:
        return doc
    expected = {"code_fingerprint": code_fingerprint(), "spec_hash": spec_hash}
    for key, mismatch in _STAMP_MISMATCH.items():
        if expected[key] is not None and doc.get(key) != expected[key]:
            raise error(
                f"{noun} {path!r} "
                + mismatch.format(found=doc.get(key), expected=expected[key])
            )
    return doc


def spec_digest(doc: Union[dict, list]) -> str:
    """SHA-256 of ``doc`` as canonical JSON (sorted keys, no spaces): a
    spec's identity, whatever the key order or layout of its file, and
    the signature of a result's deterministic payload."""
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
