"""Heap-based discrete-event engine.

The engine keeps a priority queue of ``(time, seq, event)`` entries
ordered by simulated time (milliseconds).  Ties are broken by insertion
order so that runs are deterministic; ``seq`` is unique, so the heap
orders by a C-level tuple compare that never reaches the
:class:`Event`.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional


class Event:
    """A scheduled callback.

    Events are created through :meth:`Engine.schedule` and cancelled
    with :meth:`cancel`.
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
        self._seq = 0
        # Current simulated time in milliseconds.  A plain attribute:
        # every trace record and every delivery reads it.
        self.now = 0.0
        self._processed = 0

    @property
    def processed_events(self) -> int:
        """Number of events executed so far (for diagnostics)."""
        return self._processed

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

    def step(self) -> bool:
        """Execute the next live event.  Returns False when idle."""
        queue = self._queue
        while queue:
            when, _, event = heapq.heappop(queue)
            if event.cancelled:
                continue
            self.now = when
            self._processed += 1
            event.callback(*event.args)
            return True
        return False

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the next live event lies past
        ``until`` (an absolute simulated time).

        Only in the second case does the clock advance to exactly
        ``until``; a drained queue leaves it at the last event fired.
        Each event goes through :meth:`step`, the one place an event
        fires.  Host time is measured from outside, by sampling
        (:class:`repro.obs.sampler.Sampler`), so nothing here reads a
        clock.
        """
        queue = self._queue
        while True:
            # Cancelled heads are dropped here, so step() pops a live
            # event first try.
            while queue and queue[0][2].cancelled:
                heapq.heappop(queue)
            if not queue:
                return
            if until is not None and queue[0][0] > until:
                self.now = until
                return
            self.step()
