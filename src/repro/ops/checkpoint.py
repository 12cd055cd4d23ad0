"""Sha256-signed on-disk checkpoints for operations sessions.

A checkpoint directory holds one pickle per checkpoint index plus a
``checkpoints.json`` manifest and a small ``status.json``::

    ckpts/
      checkpoint_000001.pkl     # {"meta", "globals", "session"}
      checkpoint_000002.pkl
      checkpoints.json          # manifest: sha256 + sim time per index
      status.json               # latest index, sim time, spec name

Each pickle is the full session object graph (engine event queue,
switch registers, NIB/Flow-DB, orchestrator and admission queues, RNG
generators, obs counters) plus the registered module-level counters
from :mod:`repro.sim.snapshot`.  The manifest records the SHA-256 of
every checkpoint's bytes; :func:`load_checkpoint` refuses to restore a
file whose digest does not match (a truncated or hand-edited file
fails loudly, never silently diverges).

All writes are atomic (``tmp`` + ``os.replace``), so a session killed
*during* a checkpoint write leaves the previous checkpoint set intact.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from typing import TYPE_CHECKING, Any, Optional

from repro.sim.snapshot import capture_global_state, restore_global_state

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ops.session import OpsSession

#: Bumped whenever the checkpoint payload layout changes; a mismatch
#: on load is an error (old checkpoints do not silently restore).
#: 2: the session graph holds the incremental ``LiveChecker``'s caches
#: and ``Trace`` subscribers as (callback, kinds) pairs.
CHECKPOINT_FORMAT = 2

_MANIFEST = "checkpoints.json"
_STATUS = "status.json"


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


def _atomic_write_json(path: str, doc: dict) -> None:
    _atomic_write(
        path, (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
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
    """Persist one checkpoint; returns its manifest entry."""
    os.makedirs(directory, exist_ok=True)
    meta = {
        "format": CHECKPOINT_FORMAT,
        "name": session.spec.name,
        "spec_hash": session.spec.spec_hash(),
        "index": index,
        "sim_time_ms": float(session.engine.now),
    }
    blob = pickle.dumps(
        {"meta": meta, "globals": capture_global_state(), "session": session}
    )
    digest = hashlib.sha256(blob).hexdigest()
    filename = _checkpoint_name(index)
    _atomic_write(os.path.join(directory, filename), blob)

    entry = {
        "index": index,
        "file": filename,
        "sha256": digest,
        "sim_time_ms": meta["sim_time_ms"],
    }
    try:
        manifest = read_manifest(directory)
    except CheckpointError:
        manifest = {
            "format": CHECKPOINT_FORMAT,
            "name": session.spec.name,
            "spec_hash": meta["spec_hash"],
            "checkpoints": [],
        }
    if manifest.get("spec_hash") != meta["spec_hash"]:
        raise CheckpointError(
            f"checkpoint dir {directory!r} belongs to a different spec "
            f"(manifest spec_hash {manifest.get('spec_hash')!r})"
        )
    manifest["checkpoints"] = [
        e for e in manifest["checkpoints"] if int(e["index"]) != index
    ] + [entry]
    manifest["checkpoints"].sort(key=lambda e: int(e["index"]))
    _atomic_write_json(os.path.join(directory, _MANIFEST), manifest)
    _atomic_write_json(
        os.path.join(directory, _STATUS),
        {
            "name": session.spec.name,
            "latest_index": index,
            "sim_time_ms": meta["sim_time_ms"],
            "checkpoints": len(manifest["checkpoints"]),
        },
    )
    return entry


def load_checkpoint(
    directory: str, index: Optional[int] = None
) -> "OpsSession":
    """Verify, unpickle and **restore** a checkpoint.

    Restores the registered module-level counters as a side effect and
    returns the session, positioned exactly where the checkpoint was
    taken — ``session.run()`` continues byte-identically.  ``index``
    defaults to the latest checkpoint in the manifest."""
    manifest = read_manifest(directory)
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
    meta = payload["meta"]
    if meta.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"checkpoint {path!r} has format {meta.get('format')!r}; "
            f"this build reads format {CHECKPOINT_FORMAT}"
        )
    restore_global_state(payload["globals"])
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
    """The ``status.json`` view, recomputed from the manifest."""
    manifest = read_manifest(directory)
    entries = sorted(
        manifest.get("checkpoints", []), key=lambda e: int(e["index"])
    )
    latest: Optional[dict[str, Any]] = entries[-1] if entries else None
    return {
        "name": manifest.get("name"),
        "spec_hash": manifest.get("spec_hash"),
        "checkpoints": len(entries),
        "latest_index": int(latest["index"]) if latest else None,
        "sim_time_ms": float(latest["sim_time_ms"]) if latest else None,
        "entries": entries,
    }
