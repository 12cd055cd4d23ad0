"""Time-stamped event tracing.

Every forwarding-state change, message send/receive and verification
outcome is recorded in a :class:`Trace`.  Readers are live
subscribers routed by kind: the consistency checker asserts the
paper's invariants at every instant, and the harness collects its
Fig. 2 series, Fig. 7 completion times and message counts as the run
goes.  What a trace keeps afterwards serves signing, checkpoint rows
and trace-file export only.
"""

from __future__ import annotations

import hashlib
import marshal
from collections import Counter
from itertools import islice
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional


class TraceEvent(NamedTuple):
    """One traced occurrence at a simulated time."""

    time: float
    kind: str
    node: str
    detail: dict

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.time:9.3f} ms {self.kind} @{self.node} {self.detail}>"


# Canonical event kinds used across the codebase.  Modules may add
# their own, but these are the ones the checker and benches rely on.
KIND_RULE_CHANGE = "rule_change"        # forwarding rule updated
KIND_MSG_SEND = "msg_send"
KIND_MSG_RECV = "msg_recv"
KIND_MSG_DROP = "msg_drop"
#: A message record is on the data plane iff it carries this detail key.
DATA_PLANE_KEY = {KIND_MSG_SEND: "port", KIND_MSG_RECV: "port", KIND_MSG_DROP: "dest"}
KIND_VERIFY_OK = "verify_ok"
KIND_VERIFY_FAIL = "verify_fail"
KIND_PACKET_RECV = "packet_recv"        # data packet seen at a node
KIND_PACKET_LOST = "packet_lost"        # TTL expiry or blackhole
KIND_PACKET_DELIVERED = "packet_delivered"
KIND_UPDATE_DONE = "update_done"        # controller saw UFM
KIND_CAPACITY = "capacity"              # link reservation change
KIND_SCHED = "sched"                    # congestion scheduler decision
# Topology-level failure events and recovery (repro.chaos).
KIND_UPDATE_ABORTED = "update_aborted"  # pending update rolled back
KIND_FLOW_PARKED = "flow_parked"        # no alternate path; structured report
KIND_LINK_DOWN = "link_down"
KIND_LINK_UP = "link_up"
KIND_SWITCH_CRASH = "switch_crash"
KIND_SWITCH_RESTART = "switch_restart"
KIND_CONTROLLER_DOWN = "controller_down"
KIND_CONTROLLER_UP = "controller_up"
# Update-request service lifecycle (repro.serve).
KIND_REQUEST_SUBMITTED = "request_submitted"
KIND_REQUEST_SHED = "request_shed"          # rejected or parked at admission
KIND_REQUEST_DISPATCHED = "request_dispatched"
KIND_REQUEST_DONE = "request_done"          # terminal outcome reached
KIND_REQUEST_ADMITTED = "request_admitted"  # entered the main queue
KIND_REQUEST_WAIT = "request_wait"          # a queued request's wait reason changed
KIND_REQUEST_REQUEUED = "request_requeued"  # recovery took the flow before prepare
KIND_REQUEST_PUSHED = "request_pushed"      # prepared update entered the control channel
# Retries: a reliable-control retransmission and a §11 re-trigger.
KIND_RETRANSMIT = "retransmit"
KIND_RETRIGGER = "retrigger"

#: What :func:`trace_signature` hashes: 2 = the marshalled positional
#: rows (``docs/ARCHITECTURE.md``).  Manifests record it.
SIGNATURE_FORMAT = 2

#: Rows marshalled per ``digest.update`` (bounds the bytes held at once,
#: and the rows a streamed :class:`Trace` keeps).
_SIGNATURE_BLOCK = 1024

#: ``marshal`` 2 writes no back-references; 3 and later write one for
#: every object whose refcount exceeds one and mark interned strings, so
#: their bytes depend on object identity and interning, not on values.
_MARSHAL_VERSION = 2

_KIND = itemgetter(1)

_STREAMED = "a streamed Trace (Trace.stream) signs its rows and keeps none to read"


def trace_signature(trace: Iterable[TraceEvent]) -> str:
    """SHA-256 over the trace's positional rows (determinism probe).

    Format v2 (``docs/ARCHITECTURE.md``): the positional ``(time, kind,
    node, detail)`` rows of the :class:`Trace`, in trace order and in
    blocks of up to 1 024, each block transposed into its four columns
    and written by ``marshal`` version 2.  No Python-level call is made
    per event or per block (so the block is not hashed by
    :func:`_fold_block`).  A value ``marshal`` cannot write (no builtin
    type) is a :class:`TypeError` naming its event."""
    digest = hashlib.sha256()
    events = iter(trace)
    while block := list(islice(events, _SIGNATURE_BLOCK)):
        try:
            digest.update(marshal.dumps(tuple(zip(*block)), _MARSHAL_VERSION))
        except ValueError:
            raise TypeError(_unsignable(block)) from None
    return digest.hexdigest()


def _fold_block(digest: Any, block: list[TraceEvent]) -> None:
    """Hash one block of :func:`trace_signature` into ``digest``."""
    try:
        digest.update(marshal.dumps(tuple(zip(*block)), _MARSHAL_VERSION))
    except ValueError:
        raise TypeError(_unsignable(block)) from None


def _unsignable(block: list[TraceEvent]) -> str:
    for time, kind, node, detail in block:
        try:
            marshal.dumps((time, kind, node, detail), _MARSHAL_VERSION)
        except ValueError:
            return (
                f"trace signature format {SIGNATURE_FORMAT} cannot sign the "
                f"{kind!r} event at {node!r}, t={time!r}: {detail!r} holds a "
                f"value of no builtin type"
            )
    return "trace block cannot be signed"


class Trace:
    """Event log whose readers subscribe by kind.

    Subscribers are routed by kind: one that names the ``kinds`` it
    reads is never called for any other.  Within a kind, subscribers
    run in subscription order, whether or not they named kinds.

    The rows themselves are kept only for :meth:`signature`, ops
    checkpoint rows and trace-file export, read in order through
    :attr:`events` or iteration.  ``max_events`` bounds them: when
    positive, the log becomes a ring keeping only the newest
    ``max_events`` events; each older one is dropped and counted in
    ``dropped_events``.  Subscribers still see every event (live
    checking is unaffected), only retention changes.  The default
    (``0``) keeps every row.

    :meth:`stream` keeps no rows at all: each full block of
    :func:`trace_signature` is hashed as it fills and dropped, so
    :meth:`signature` is unchanged while memory stays flat.
    """

    def __init__(self, max_events: int = 0) -> None:
        self.max_events = int(max_events)
        # The kept rows; a streamed trace's open signature block.
        self._events: list[TraceEvent] = []
        self.dropped_events = 0
        # (callback, kinds it reads or None for all), subscription order.
        self._subscribers: list[
            tuple[Callable[[TraceEvent], None], Optional[frozenset[str]]]
        ] = []
        # kind -> its callbacks; derived from _subscribers per kind on
        # first use, dropped whenever the subscriber list changes.
        self._routes: dict[str, list[Callable[[TraceEvent], None]]] = {}
        # Streamed only: the digest of the folded blocks and their rows
        # per kind.
        self._digest: Any = None
        self._folded_kinds: Counter[str] = Counter()

    def record(self, time: float, kind: str, node: str, **detail: Any) -> TraceEvent:
        # tuple.__new__ skips the generated NamedTuple constructor.
        event = tuple.__new__(TraceEvent, (time, kind, node, detail))
        events = self._events
        events.append(event)
        if self._digest is not None:
            if len(events) == _SIGNATURE_BLOCK:
                self._fold(events)
                self._events = []
        elif 0 < self.max_events < len(events):
            del events[0]
            self.dropped_events += 1
        route = self._routes.get(kind)
        if route is None:
            route = self._routes[kind] = [
                callback
                for callback, kinds in self._subscribers
                if kinds is None or kind in kinds
            ]
        for subscriber in route:
            subscriber(event)
        return event

    def stream(self) -> None:
        """Keep no rows from now on: fold every full signature block
        into a running digest as it fills, rows so far included.

        ``len``, ``count_of_kind`` and :meth:`signature` answer as if
        every row were kept; :attr:`events` and iteration raise.  A
        detail ``marshal`` cannot write is refused when its block fills
        (by the :meth:`record` of the block's 1 024th row), not when the
        trace is signed.  A ring cannot stream: it signs its tail."""
        if self.max_events > 0:
            raise ValueError("a ring Trace signs its tail and cannot stream")
        if self._digest is not None:
            return
        rows = self._events
        self._digest = hashlib.sha256()
        full = len(rows) - len(rows) % _SIGNATURE_BLOCK
        for start in range(0, full, _SIGNATURE_BLOCK):
            self._fold(rows[start:start + _SIGNATURE_BLOCK])
        self._events = rows[full:]

    def _fold(self, block: list[TraceEvent]) -> None:
        _fold_block(self._digest, block)
        self._folded_kinds.update(map(_KIND, block))

    def signature(self) -> str:
        """:func:`trace_signature` of every row recorded (of a ring:
        of the rows it kept)."""
        if self._digest is None:
            return trace_signature(self._events)
        digest = self._digest.copy()
        if self._events:
            _fold_block(digest, self._events)
        return digest.hexdigest()

    def _kept(self) -> list[TraceEvent]:
        if self._digest is not None:
            raise RuntimeError(_STREAMED)
        return self._events

    @property
    def events(self) -> list[TraceEvent]:
        return self._kept()

    def subscribe(
        self,
        callback: Callable[[TraceEvent], None],
        kinds: Optional[Iterable[str]] = None,
    ) -> None:
        """Invoke ``callback`` for every future event (live checking),
        or only for events of the given ``kinds``."""
        self._subscribers.append(
            (callback, None if kinds is None else frozenset(kinds))
        )
        self._routes = {}

    def unsubscribe(self, callback: Callable[[TraceEvent], None]) -> bool:
        """Stop notifying ``callback``; True when it was subscribed.

        Removes one registration per call (mirroring ``subscribe``);
        unknown callbacks are ignored rather than raising, so teardown
        paths can unsubscribe unconditionally.
        """
        for i, (registered, _) in enumerate(self._subscribers):
            # Equality, not identity: bound methods are rebuilt on every
            # attribute access and callers may hold a wrapper that
            # compares equal to what they subscribed.
            if registered == callback:
                del self._subscribers[i]
                self._routes = {}
                return True
        return False

    def count_of_kind(self, kind: str) -> int:
        """Rows of ``kind`` recorded (of a ring: kept)."""
        return self._folded_kinds[kind] + list(map(_KIND, self._events)).count(kind)

    def __iter__(self) -> Iterator[TraceEvent]:
        # Checked inline: signing a kept trace makes no call but this one.
        if self._digest is not None:
            raise RuntimeError(_STREAMED)
        return iter(self._events)

    def __len__(self) -> int:
        return sum(self._folded_kinds.values()) + len(self._events)
