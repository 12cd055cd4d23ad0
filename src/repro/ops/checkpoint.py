"""Replay points: on-disk checkpoints for operations sessions.

A session is deterministic from its spec, so a checkpoint does not
carry the run — it says where the run was and what it had done.  A
checkpoint directory is one manifest::

    ckpts/
      checkpoints.json    # spec document + one row per checkpoint tick

The manifest carries, once, the session spec document
(``SessionSpec.to_dict()``), whether the run was instrumented
(``obs``) and the two stamps of :func:`repro.loading.write_stamped` —
``spec_hash`` and the ``code_fingerprint`` of the ``repro`` source that
wrote it; and one row per tick: ``index``,
``sim_time_ms``, ``processed_events`` and ``digest`` — the
:func:`~repro.sim.trace.trace_signature` of the trace rows recorded
since the previous tick, which the session collects and signs at the
tick.

:func:`load_checkpoint` refuses a manifest of another build or an
edited spec document before anything is simulated, then
:func:`replay` rebuilds the session from the spec and re-runs it,
comparing every tick up to the requested one with its row; the session
comes back positioned right after that tick, so ``session.run()``
continues byte-identically.  A resume therefore pays for its prefix.

A directory has one writer, the :class:`CheckpointSink` of the running
session.  The sink opens the manifest once — a directory whose manifest
is unreadable or belongs to another code fingerprint or spec is refused
there, before the file is touched — and keeps it in memory, so each
tick costs one atomic write (``os.replace``): a session killed during a
write leaves the previous manifest intact.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional

from repro.loading import read_stamped, write_stamped

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ops.session import OpsSession

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


def read_manifest(directory: str, check: bool = True) -> dict:
    """``directory``'s manifest, refused unless this build wrote it
    (``check=False``: the unchecked read ``ops status`` does)."""
    path = os.path.join(directory, _MANIFEST)
    try:
        return read_stamped(path, "manifest", CheckpointError, check=check)
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint manifest at {path!r}") from None


def _row(session: "OpsSession", index: int) -> dict:
    """What the manifest records about tick ``index`` of ``session``."""
    return {
        "index": index,
        "sim_time_ms": float(session.engine.now),
        "processed_events": session.engine.processed_events,
        "digest": session.segment_digest,
    }


def write_checkpoint(directory: str, manifest: dict, row: dict, spec_hash: str) -> None:
    """Put ``row`` into ``manifest`` in place of any row of its index
    and write the manifest into ``directory``, stamped with
    ``spec_hash``: nothing is read or hashed.  ``manifest`` is the one a
    :class:`CheckpointSink` opened."""
    rows = [r for r in manifest["checkpoints"] if r.get("index") != row["index"]]
    manifest["checkpoints"] = sorted(rows + [row], key=lambda r: r["index"])
    os.makedirs(directory, exist_ok=True)
    write_stamped(os.path.join(directory, _MANIFEST), manifest, spec_hash)


def replay(
    manifest: dict, index: int, sink: Optional["CheckpointSink"] = None
) -> "OpsSession":
    """Build ``manifest``'s session from its spec and run it to right
    after tick ``index``, checking every tick on the way against its
    row (rows ``1..index`` must be present); ``sink`` then takes over
    the ticks that follow."""
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
        sink=verify,
    )
    try:
        session.run()
    except StopSession:
        session._sink = sink
        if sink is None:
            session.deployment.network.trace.unsubscribe(session._segment.append)
        session.resumed_from = index
        return session
    raise CheckpointError(f"replay reached the horizon without checkpoint {index}")


def load_checkpoint(
    directory: str, index: Optional[int] = None,
    sink: Optional["CheckpointSink"] = None,
) -> "OpsSession":
    """Check ``directory``'s manifest — code fingerprint, the spec
    document against ``spec_hash``, the rows a replay needs — and
    :func:`replay` its session to checkpoint ``index`` (default: the
    latest), handing later ticks to ``sink``.  These checks refuse
    before the first simulated event; a row that does not replay is
    refused at its tick."""
    from repro.ops.spec import load_session_spec

    manifest = read_manifest(directory)
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
    return replay(manifest, index, sink)


class CheckpointSink:
    """The runtime writer a CLI passes to ``build_session`` or
    ``load_checkpoint``, and the only writer of its directory.

    :meth:`open` reads the directory's manifest (or starts a fresh one)
    and hashes the spec, once; every refusal happens there.  Each tick
    then replaces or appends its row in memory and costs one write."""

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
        self._manifest: Optional[dict] = None
        self._spec_hash = ""

    def open(self, session: "OpsSession") -> None:
        """Take the manifest ``session`` writes its rows into: the
        directory's own, or a fresh one.  A directory whose manifest is
        unreadable or another build or spec wrote is refused, with every
        file untouched.  The first tick opens a sink not yet opened."""
        spec = session.spec
        self._spec_hash = spec.spec_hash()
        try:
            self._manifest = read_stamped(
                os.path.join(self.directory, _MANIFEST), "manifest",
                CheckpointError, self._spec_hash,
            )
        except FileNotFoundError:
            self._manifest = {"name": spec.name, "spec": spec.to_dict(),
                              "obs": bool(session.obs.enabled), "checkpoints": []}

    def __call__(self, session: "OpsSession", index: int) -> None:
        if self._manifest is None:
            self.open(session)
        row = _row(session, index)
        write_checkpoint(self.directory, self._manifest, row, self._spec_hash)
        self.written.append(row)
        if self.verbose:
            print(
                f"checkpoint {index} at t={row['sim_time_ms']:.1f} ms "
                f"-> {_MANIFEST} ({row['digest'][:16]})"
            )
        if self.stop_after is not None and index >= self.stop_after:
            raise StopSession(index)
