"""Replay points: on-disk checkpoints for operations sessions.

A session is deterministic from its spec, so a checkpoint does not
carry the run — it says where the run was and what it had done.  A
checkpoint directory is one manifest::

    ckpts/
      checkpoints.json    # spec document + one row per checkpoint tick

The manifest carries, once, the session spec document
(``SessionSpec.to_dict()``), its ``spec_hash``, whether the run was
instrumented (``obs``), the format and a fingerprint of the ``repro``
source that wrote it; and one row per tick: ``index``,
``sim_time_ms``, ``processed_events`` and ``digest`` — the
:func:`~repro.chaos.runner.trace_signature` of the trace rows recorded
since the previous tick (the retained ones, when a ring buffer dropped
some; positions count every record).

:func:`load_checkpoint` refuses a manifest of another format, another
build or an edited spec document before anything is simulated, then
:func:`replay` rebuilds the session from the spec and re-runs it,
comparing every tick up to the requested one with its row; the session
comes back positioned right after that tick, so ``session.run()``
continues byte-identically.  A resume therefore pays for its prefix.

Manifest writes are atomic (``os.replace``), so a session killed during
a write leaves the previous manifest intact, and a write into a
directory that belongs to another format, code fingerprint or spec is
refused before the file is touched.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pathlib
from typing import TYPE_CHECKING, Optional

from repro.chaos.runner import trace_signature
from repro.loading import write_json_atomic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ops.session import OpsSession

#: Bumped whenever the manifest layout changes; a mismatch on load is
#: an error (old checkpoints do not silently restore).
CHECKPOINT_FORMAT = 5

_MANIFEST = "checkpoints.json"

#: What a manifest row records besides its index, each compared during
#: replay.
_ROW_KEYS = ("sim_time_ms", "processed_events", "digest")
_ROW_FIELDS = {"index", *_ROW_KEYS}


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, found, or safely replayed."""


class StopSession(Exception):
    """Raised by a sink to halt the engine right after a checkpoint
    (the ``--stop-after`` kill point, and where a replay ends)."""

    def __init__(self, index: int) -> None:
        self.index = index
        super().__init__(f"session stopped after checkpoint {index}")


@functools.cache
def code_fingerprint() -> str:
    """SHA-256 over every ``repro/**/*.py`` (relative path + bytes, in
    sorted path order), computed once per process."""
    root = pathlib.Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def _refuse_foreign(directory: str, manifest: dict) -> None:
    """Raise unless ``manifest`` was written in this build's format by
    this build's code."""
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"checkpoint dir {directory!r} has format {manifest.get('format')!r}; "
            f"this build reads format {CHECKPOINT_FORMAT}"
        )
    if manifest.get("code_fingerprint") != code_fingerprint():
        raise CheckpointError(
            f"checkpoint dir {directory!r} was written by code fingerprint "
            f"{manifest.get('code_fingerprint')!r}; this build is "
            f"{code_fingerprint()!r} — re-run the session from its spec"
        )


def read_manifest(directory: str) -> dict:
    path = os.path.join(directory, _MANIFEST)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint manifest at {path!r}") from None
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable manifest {path!r}: {exc}") from None
    if not isinstance(manifest, dict):
        raise CheckpointError(f"unreadable manifest {path!r}: not an object")
    return manifest


def open_manifest(directory: str, session: "OpsSession") -> dict:
    """The manifest ``session`` writes its rows into: the directory's
    own, or a fresh one.  A directory another format, build or spec
    wrote is refused, with every file untouched."""
    try:
        manifest = read_manifest(directory)
    except CheckpointError:
        return {
            "format": CHECKPOINT_FORMAT,
            "code_fingerprint": code_fingerprint(),
            "name": session.spec.name,
            "spec": session.spec.to_dict(),
            "spec_hash": session.spec.spec_hash(),
            "obs": bool(session.obs.enabled),
            "checkpoints": [],
        }
    _refuse_foreign(directory, manifest)
    if manifest.get("spec_hash") != session.spec.spec_hash():
        raise CheckpointError(
            f"checkpoint dir {directory!r} belongs to a different spec "
            f"(manifest spec_hash {manifest.get('spec_hash')!r})"
        )
    return manifest


def _row(session: "OpsSession", index: int) -> dict:
    """What the manifest records about tick ``index`` of ``session``."""
    trace = session.deployment.network.trace
    start = session.segment[0]
    return {
        "index": index,
        "sim_time_ms": float(session.engine.now),
        "processed_events": session.engine.processed_events,
        "digest": trace_signature(trace.events[max(start - trace.dropped_events, 0):]),
    }


def write_checkpoint(directory: str, session: "OpsSession", index: int) -> dict:
    """Record tick ``index`` of ``session``; returns its manifest row."""
    manifest = open_manifest(directory, session)
    row = _row(session, index)
    os.makedirs(directory, exist_ok=True)
    rows = [r for r in manifest["checkpoints"] if r.get("index") != index]
    manifest["checkpoints"] = sorted(rows + [row], key=lambda r: r["index"])
    write_json_atomic(os.path.join(directory, _MANIFEST), manifest)
    return row


def replay(manifest: dict, index: int) -> "OpsSession":
    """Build ``manifest``'s session from its spec and run it to right
    after tick ``index``, checking every tick on the way against its
    row (rows ``1..index`` must be present)."""
    from repro.obs import make_obs
    from repro.ops.session import build_session
    from repro.ops.spec import load_session_spec

    rows = {row["index"]: row for row in manifest["checkpoints"]}

    def verify(session: "OpsSession", tick: int) -> None:
        replayed = _row(session, tick)
        for key in _ROW_KEYS:
            if replayed[key] != rows[tick][key]:
                raise CheckpointError(
                    f"checkpoint {tick} does not replay: {key} is "
                    f"{rows[tick][key]!r} in the manifest, {replayed[key]!r} on replay"
                )
        if tick >= index:
            raise StopSession(tick)

    session = build_session(
        load_session_spec(manifest["spec"]),
        obs=make_obs() if manifest["obs"] else None,
    )
    session._sink = verify
    try:
        session.run()
    except StopSession:
        session._sink = None
        session.resumed_from = index
        return session
    raise CheckpointError(f"replay reached the horizon without checkpoint {index}")


def load_checkpoint(
    directory: str, index: Optional[int] = None
) -> "OpsSession":
    """Check ``directory``'s manifest — format, fingerprint, the spec
    document against ``spec_hash``, the rows a replay needs — and
    :func:`replay` its session to checkpoint ``index`` (default: the
    latest).  These checks refuse before the first simulated event; a
    row that does not replay is refused at its tick."""
    from repro.ops.spec import load_session_spec

    manifest = read_manifest(directory)
    _refuse_foreign(directory, manifest)
    try:
        spec_hash = load_session_spec(manifest["spec"]).spec_hash()
        rows = {r["index"] for r in manifest["checkpoints"] if set(r) == _ROW_FIELDS}
        if not isinstance(manifest["obs"], bool):
            raise TypeError(f"obs is {manifest['obs']!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint dir {directory!r} has a malformed manifest ({exc!r})"
        ) from None
    if spec_hash != manifest["spec_hash"]:
        raise CheckpointError(
            f"checkpoint dir {directory!r}: the spec document hashes to "
            f"{spec_hash!r}, the manifest says {manifest['spec_hash']!r}"
        )
    if not rows:
        raise CheckpointError(f"checkpoint dir {directory!r} is empty")
    index = max(rows) if index is None else index
    if index not in rows:
        raise CheckpointError(
            f"no checkpoint with index {index} in {directory!r} (have {sorted(rows)})"
        )
    missing = sorted(set(range(1, index)) - rows)
    if missing:
        raise CheckpointError(
            f"checkpoint dir {directory!r} lacks the rows {missing} before {index}"
        )
    return replay(manifest, index)


class CheckpointSink:
    """The runtime writer a CLI attaches to ``session._sink``."""

    def __init__(
        self,
        directory: str,
        stop_after: Optional[int] = None,
        verbose: bool = False,
    ) -> None:
        self.directory = directory
        self.stop_after = stop_after
        self.verbose = verbose
        self.written: list[dict] = []

    def __call__(self, session: "OpsSession", index: int) -> None:
        row = write_checkpoint(self.directory, session, index)
        self.written.append(row)
        if self.verbose:
            print(
                f"checkpoint {index} at t={row['sim_time_ms']:.1f} ms "
                f"-> {_MANIFEST} ({row['digest'][:16]})"
            )
        if self.stop_after is not None and index >= self.stop_after:
            raise StopSession(index)
