"""Opt-in engine profiling: wall-clock cost per callback target.

The discrete-event engine executes millions of tiny callbacks; this
profiler attributes wall-clock time and call counts to each callback
*target* (qualified function name), so the hot paths of
``switch.py``/``dataplane.py`` become rankable without an external
profiler.  Profiling is a kind of engine, not a mode of it:
:class:`ProfiledEngine` times each :meth:`Engine.step` into an
:class:`EngineProfiler`, and ``build_network`` constructs one when the
run's ``ObsContext`` carries a profiler (``make_obs(profile=True)``).
The plain :class:`~repro.sim.engine.Engine` never reads the host
clock and carries no profiling branch.
"""

from __future__ import annotations

import heapq
import time
from typing import Any, Callable

from repro.sim.engine import Engine


def _target_name(callback: Callable[..., Any]) -> str:
    """Stable display name for a callback (bound methods included)."""
    qualname = getattr(callback, "__qualname__", None)
    if qualname is None:
        qualname = type(callback).__name__
    module = getattr(callback, "__module__", None)
    if module is None:
        func = getattr(callback, "__func__", None)
        module = getattr(func, "__module__", "") if func else ""
    return f"{module}.{qualname}" if module else qualname


class EngineProfiler:
    """Accumulates per-target call counts and wall-clock totals."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        # target -> [calls, total_seconds, max_seconds]
        self._rows: dict[str, list] = {}

    def record(self, callback: Callable[..., Any], elapsed_s: float) -> None:
        target = _target_name(callback)
        row = self._rows.get(target)
        if row is None:
            self._rows[target] = [1, elapsed_s, elapsed_s]
        else:
            row[0] += 1
            row[1] += elapsed_s
            if elapsed_s > row[2]:
                row[2] = elapsed_s

    @property
    def total_seconds(self) -> float:
        return sum(row[1] for row in self._rows.values())

    def report(self, top: int = 0) -> list[dict]:
        """Targets ranked by total wall time (descending).

        ``top`` > 0 limits the report to the top-N entries.
        """
        rows = [
            {
                "target": target,
                "calls": calls,
                "total_ms": total * 1000.0,
                "mean_us": (total / calls) * 1e6 if calls else 0.0,
                "max_us": worst * 1e6,
            }
            for target, (calls, total, worst) in self._rows.items()
        ]
        rows.sort(key=lambda row: row["total_ms"], reverse=True)
        return rows[:top] if top > 0 else rows


class ProfiledEngine(Engine):
    """An :class:`Engine` whose every event is timed into ``profiler``.

    Only :meth:`step` differs: it drops cancelled heads, notes the live
    head's callback and times the plain ``Engine.step`` around it.
    Simulated time and event order are exactly the plain engine's."""

    def __init__(self, profiler: EngineProfiler) -> None:
        super().__init__()
        self.profiler = profiler

    def step(self) -> bool:
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
        if not queue:
            return False
        callback = queue[0][2].callback
        clock = self.profiler.clock
        started = clock()
        Engine.step(self)
        self.profiler.record(callback, clock() - started)
        return True
