"""Heap-based discrete-event engine.

The engine keeps a priority queue of ``(time, seq, event)`` entries
ordered by simulated time (milliseconds).  Ties are broken by insertion
order so that runs are deterministic; ``seq`` is unique, so the heap
orders by a C-level tuple compare that never reaches the
:class:`Event`.
"""

from __future__ import annotations

import heapq
import time
from typing import Any, Callable, Optional, Protocol


class SupportsRecord(Protocol):
    """Callback profiler interface (see :mod:`repro.obs.profiler`)."""

    def record(self, callback: Callable[..., Any], elapsed_s: float) -> None:
        ...


class Event:
    """A scheduled callback.

    Events are created through :meth:`Engine.schedule` and can be
    cancelled with :meth:`Engine.cancel` (or :meth:`cancel` directly).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(
        self, time: float, seq: int, callback: Callable[..., Any], args: tuple
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.3f} #{self.seq}{state} {self.callback!r}>"


class EngineError(RuntimeError):
    """Raised on invalid engine operations (e.g. scheduling in the past)."""


class Engine:
    """Discrete-event loop with a simulated millisecond clock."""

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, Event]] = []
        # Plain int (not itertools.count): the sequence number is part
        # of the checkpointed engine state and a count() iterator
        # cannot be pickled.
        self._seq = 0
        # Current simulated time in milliseconds.  A plain attribute:
        # every trace record and every delivery reads it.
        self.now = 0.0
        self._running = False
        self._processed = 0
        # Opt-in wall-clock attribution (repro.obs.profiler).  None by
        # default: the dispatch loop pays one `is None` check per event.
        self._profiler: Optional[SupportsRecord] = None

    @property
    def processed_events(self) -> int:
        """Number of events executed so far (for diagnostics)."""
        return self._processed

    @property
    def profiler(self) -> Optional["SupportsRecord"]:
        return self._profiler

    def set_profiler(self, profiler: Optional["SupportsRecord"]) -> None:
        """Install (or, with None, remove) a callback profiler.

        The profiler's ``record(callback, elapsed_seconds)`` is invoked
        after every executed event.  Profiling observes wall clock
        only — simulated time and event order are unaffected.
        """
        self._profiler = profiler

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` ms from now.

        ``delay`` must be non-negative; zero-delay events run after the
        current event completes, in FIFO order.
        """
        if delay < 0:
            raise EngineError(f"cannot schedule in the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        event = Event(self.now + delay, seq, callback, args)
        heapq.heappush(self._queue, (event.time, seq, event))
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated time ``time``."""
        return self.schedule(time - self.now, callback, *args)

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (lazy removal)."""
        event.cancel()

    def step(self) -> bool:
        """Execute the next pending event.  Returns False when idle."""
        queue = self._queue
        while queue:
            when, _, event = heapq.heappop(queue)
            if event.cancelled:
                continue
            self.now = when
            self._processed += 1
            if self._profiler is None:
                event.callback(*event.args)
            else:
                started = time.perf_counter()  # repro: ignore[wall-clock] profiler
                event.callback(*event.args)
                self._profiler.record(
                    event.callback, time.perf_counter() - started  # repro: ignore[wall-clock] profiler
                )
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` ms is reached, or
        ``max_events`` events have executed.

        ``until`` is an absolute simulated time; when the horizon is hit
        the clock is advanced to exactly ``until``.
        """
        self._running = True
        queue = self._queue
        executed = 0
        try:
            while self._running:
                if max_events is not None and executed >= max_events:
                    break
                # One look at the head per event: cancelled heads are
                # dropped here, so step() pops a live event first try.
                while queue and queue[0][2].cancelled:
                    heapq.heappop(queue)
                if not queue:
                    break
                if until is not None and queue[0][0] > until:
                    self.now = until
                    break
                self.step()
                executed += 1
        finally:
            self._running = False

    def stop(self) -> None:
        """Stop a run() in progress after the current event."""
        self._running = False

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(1 for _, _, event in self._queue if not event.cancelled)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # The profiler observes wall clock only and may hold callback
        # references that do not pickle; snapshots never carry it (the
        # resumed run can install a fresh one).
        state["_profiler"] = None
        state["_running"] = False
        return state
