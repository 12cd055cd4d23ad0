"""Sha256-signed on-disk checkpoints for operations sessions.

A checkpoint directory holds one pickle per checkpoint index plus a
``checkpoints.json`` manifest::

    ckpts/
      checkpoint_000001.pkl     # {"meta", "session"}
      checkpoint_000002.pkl
      checkpoints.json          # manifest: sha256 + sim time per index

Each pickle is the full session object graph (engine event queue,
switch registers, NIB/Flow-DB, orchestrator and admission queues, RNG
generators, obs counters, the network's packet numbering); nothing
outside that graph is saved, because no run state lives outside it.
The manifest records the SHA-256 of
every checkpoint's bytes; :func:`load_checkpoint` refuses to restore a
file whose digest does not match (a truncated or hand-edited file
fails loudly, never silently diverges).  It also records the payload
format and a fingerprint of the ``repro`` source that wrote it, and
both are compared **before** anything is unpickled: a pickle restores
objects by class path, so bytes written by other code would load into
this build's classes and diverge silently.

All writes are atomic (``tmp`` + ``os.replace``), so a session killed
*during* a checkpoint write leaves the previous checkpoint set intact,
and a write into a directory that belongs to another format, code
fingerprint or spec is refused before any file is touched.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pathlib
import pickle
from typing import TYPE_CHECKING, Any, Optional

from repro.loading import write_json_atomic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ops.session import OpsSession

#: Bumped whenever the checkpoint payload layout changes; a mismatch
#: on load is an error (old checkpoints do not silently restore).
#: 2: the session graph holds the incremental ``LiveChecker``'s caches
#: and ``Trace`` subscribers as (callback, kinds) pairs.
#: 3: the session nests a ``ServiceSession`` (deployment, checker,
#: orchestrator, arrival driver) instead of holding its parts.
#: 4: no ``"globals"`` section — packet numbering is the network's own
#: counter, pickled with the session.
CHECKPOINT_FORMAT = 4

_MANIFEST = "checkpoints.json"


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, found, or safely restored."""


class StopSession(Exception):
    """Raised by a sink to halt the engine right after a checkpoint
    (the ``--stop-after-checkpoint`` kill point the resume CI job
    exercises)."""

    def __init__(self, index: int) -> None:
        self.index = index
        super().__init__(f"session stopped after checkpoint {index}")


def _checkpoint_name(index: int) -> str:
    return f"checkpoint_{index:06d}.pkl"


def _atomic_write(path: str, data: bytes) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(data)
    os.replace(tmp, path)


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


def _refuse_foreign(what: str, doc: dict) -> None:
    """Raise unless ``doc`` (a manifest or a checkpoint's meta) was
    written in this build's format by this build's code."""
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"{what} has format {doc.get('format')!r}; "
            f"this build reads format {CHECKPOINT_FORMAT}"
        )
    if doc.get("code_fingerprint") != code_fingerprint():
        raise CheckpointError(
            f"{what} was written by code fingerprint "
            f"{doc.get('code_fingerprint')!r}; this build is "
            f"{code_fingerprint()!r} — re-run the session from its spec"
        )


def read_manifest(directory: str) -> dict:
    path = os.path.join(directory, _MANIFEST)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint manifest at {path!r}") from None
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable manifest {path!r}: {exc}") from None


def write_checkpoint(directory: str, session: "OpsSession", index: int) -> dict:
    """Persist one checkpoint; returns its manifest entry.

    The directory's manifest is checked first: a directory another
    format, build or spec wrote is refused with every file untouched."""
    meta = {
        "format": CHECKPOINT_FORMAT,
        "code_fingerprint": code_fingerprint(),
        "name": session.spec.name,
        "spec_hash": session.spec.spec_hash(),
        "index": index,
        "sim_time_ms": float(session.engine.now),
    }
    try:
        manifest = read_manifest(directory)
    except CheckpointError:
        manifest = {
            "format": CHECKPOINT_FORMAT,
            "code_fingerprint": meta["code_fingerprint"],
            "name": session.spec.name,
            "spec_hash": meta["spec_hash"],
            "checkpoints": [],
        }
    _refuse_foreign(f"checkpoint dir {directory!r}", manifest)
    if manifest.get("spec_hash") != meta["spec_hash"]:
        raise CheckpointError(
            f"checkpoint dir {directory!r} belongs to a different spec "
            f"(manifest spec_hash {manifest.get('spec_hash')!r})"
        )

    os.makedirs(directory, exist_ok=True)
    blob = pickle.dumps({"meta": meta, "session": session})
    filename = _checkpoint_name(index)
    _atomic_write(os.path.join(directory, filename), blob)
    entry = {
        "index": index,
        "file": filename,
        "sha256": hashlib.sha256(blob).hexdigest(),
        "sim_time_ms": meta["sim_time_ms"],
    }
    manifest["checkpoints"] = [
        e for e in manifest["checkpoints"] if int(e["index"]) != index
    ] + [entry]
    manifest["checkpoints"].sort(key=lambda e: int(e["index"]))
    write_json_atomic(os.path.join(directory, _MANIFEST), manifest)
    return entry


def load_checkpoint(
    directory: str, index: Optional[int] = None
) -> "OpsSession":
    """Verify, unpickle and **restore** a checkpoint.

    Returns the session, positioned exactly where the checkpoint was
    taken — ``session.run()`` continues byte-identically.  ``index``
    defaults to the latest checkpoint in the manifest."""
    manifest = read_manifest(directory)
    _refuse_foreign(f"checkpoint dir {directory!r}", manifest)
    entries = {int(e["index"]): e for e in manifest.get("checkpoints", [])}
    if not entries:
        raise CheckpointError(f"checkpoint dir {directory!r} is empty")
    if index is None:
        index = max(entries)
    entry = entries.get(int(index))
    if entry is None:
        raise CheckpointError(
            f"no checkpoint with index {index} in {directory!r} "
            f"(have {sorted(entries)})"
        )
    path = os.path.join(directory, entry["file"])
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise CheckpointError(f"unreadable checkpoint {path!r}: {exc}") from None
    digest = hashlib.sha256(blob).hexdigest()
    if digest != entry["sha256"]:
        raise CheckpointError(
            f"checkpoint {path!r} is corrupt: sha256 {digest} does not "
            f"match the manifest ({entry['sha256']})"
        )
    payload = pickle.loads(blob)
    _refuse_foreign(f"checkpoint {path!r}", payload["meta"])
    session = payload["session"]
    session.resumed_from = int(index)
    return session


class CheckpointSink:
    """The runtime writer a CLI attaches to ``session._sink``.

    Never pickled with the session (``OpsSession.__getstate__`` drops
    it), so checkpoint bytes are identical whether or not a sink was
    attached — the byte-identity contract's load-bearing detail."""

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
        entry = write_checkpoint(self.directory, session, index)
        self.written.append(entry)
        if self.verbose:
            print(
                f"checkpoint {index} at t={entry['sim_time_ms']:.1f} ms "
                f"-> {entry['file']} ({entry['sha256'][:16]})"
            )
        if self.stop_after is not None and index >= self.stop_after:
            raise StopSession(index)


def checkpoint_status(directory: str) -> dict:
    """What ``ops status`` prints, read from the manifest."""
    manifest = read_manifest(directory)
    entries = sorted(
        manifest.get("checkpoints", []), key=lambda e: int(e["index"])
    )
    latest: Optional[dict[str, Any]] = entries[-1] if entries else None
    return {
        "name": manifest.get("name"),
        "spec_hash": manifest.get("spec_hash"),
        "code_fingerprint": manifest.get("code_fingerprint"),
        "checkpoints": len(entries),
        "latest_index": int(latest["index"]) if latest else None,
        "sim_time_ms": float(latest["sim_time_ms"]) if latest else None,
        "entries": entries,
    }
