"""Phase spans: nestable brackets over the update lifecycle.

A span records both clocks at once — the *simulated* clock (engine
milliseconds, when a simulation is bound) and the *wall* clock
(``time.perf_counter`` seconds, reported as milliseconds) — so a
manifest can show "preparation took 3.1 wall-ms" next to
"run-to-quiescence covered 812 simulated ms".

Spans nest lexically (``with tracker.span("experiment"): with
tracker.span("preparation"): ...``) and export as a tree of plain
dicts.  The :class:`NullSpanTracker` is the disabled default: its
``span`` returns a shared re-entrant no-op context manager.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    """One completed (or still-open) phase bracket."""

    name: str
    wall_start: float
    sim_start: Optional[float]
    attrs: dict = field(default_factory=dict)
    wall_end: Optional[float] = None
    sim_end: Optional[float] = None
    children: list["Span"] = field(default_factory=list)

    @property
    def wall_ms(self) -> Optional[float]:
        if self.wall_end is None:
            return None
        return (self.wall_end - self.wall_start) * 1000.0

    @property
    def sim_ms(self) -> Optional[float]:
        if self.sim_start is None or self.sim_end is None:
            return None
        return self.sim_end - self.sim_start

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "wall_ms": self.wall_ms,
            "sim_start_ms": self.sim_start,
            "sim_end_ms": self.sim_end,
            "sim_ms": self.sim_ms,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out


class _SpanContext:
    """Context manager closing one span on exit."""

    __slots__ = ("_tracker", "_span")

    def __init__(self, tracker: "SpanTracker", span: Span) -> None:
        self._tracker = tracker
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracker._close(self._span)


class SpanTracker:
    """Collects a forest of spans for one run."""

    enabled = True

    def __init__(
        self,
        sim_clock: Optional[Callable[[], float]] = None,
        wall_clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.sim_clock = sim_clock
        self.wall_clock = wall_clock
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    def span(self, name: str, **attrs) -> _SpanContext:
        """Open a nested span; close it by leaving the ``with`` block."""
        span = Span(
            name=name,
            wall_start=self.wall_clock(),
            sim_start=self.sim_clock() if self.sim_clock else None,
            attrs=attrs,
        )
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return _SpanContext(self, span)

    def _close(self, span: Span) -> None:
        while self._stack:
            top = self._stack.pop()
            top.wall_end = self.wall_clock()
            top.sim_end = self.sim_clock() if self.sim_clock else None
            if top is span:
                break

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def tree(self) -> list[dict]:
        """The completed span forest as JSON-safe dicts."""
        return [root.to_dict() for root in self.roots]


_NULL_SPAN_CONTEXT: contextlib.nullcontext[None] = contextlib.nullcontext()


class NullSpanTracker(SpanTracker):
    """Disabled tracker: span() is a shared no-op context manager."""

    enabled = False

    def span(self, name: str, **attrs) -> contextlib.nullcontext[None]:  # type: ignore[override]
        return _NULL_SPAN_CONTEXT

    def tree(self) -> list[dict]:
        return []
