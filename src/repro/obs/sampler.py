"""Host CPU sampling: where a run's host time went, per function and
per ``repro`` layer.

:class:`Sampler` arms the process CPU timer (``ITIMER_PROF``) and, on
each ``SIGPROF``, charges one sample to the innermost frame whose module
lies under ``repro.`` (or to :data:`OUTSIDE` when no such frame is on
the stack: the interpreter, numpy, the pool's pickling).  A target's
share of the samples estimates its share of the sampled CPU time, with
the binomial standard error ``sqrt(p(1-p)/n)`` that
:func:`format_samples` prints beside each layer.

The sampler reads no simulated state and schedules nothing, so a
sampled run is the plain run: same events, same trace, same signature.
Signal handlers run on the main thread only, so a ``Sampler`` must be
entered there (a pool worker's main thread counts).  Samplers do not
nest: leaving an inner one disarms the timer for both.

    with Sampler() as sampler:
        run_experiment(...)
    print(format_samples(sampler.report()))
"""

from __future__ import annotations

import math
import signal
from typing import Iterable

#: Seconds of process CPU time between samples.  The kernel tick caps
#: the delivered rate (about 250 samples per CPU second on a 4 ms tick),
#: so a finer interval buys nothing and this is not an option.
INTERVAL_S = 0.001
#: The target charged when no ``repro`` frame is on the stack.
OUTSIDE = "(outside repro)"


class Sampler:
    """Context manager counting ``SIGPROF`` samples per target (the
    qualified name of the innermost ``repro`` function)."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def _sample(self, _signum, frame) -> None:
        target = OUTSIDE
        while frame is not None:
            module = frame.f_globals.get("__name__", "")
            if module.startswith("repro."):
                # co_qualname (3.11+) names the class too: Engine.run, not run.
                target = f"{module}.{getattr(frame.f_code, 'co_qualname', frame.f_code.co_name)}"
                break
            frame = frame.f_back
        self.counts[target] = self.counts.get(target, 0) + 1

    def report(self) -> list[dict]:
        """``{target, samples}`` rows, most-sampled first."""
        # list() copies in one C call, so a sample landing mid-report
        # cannot resize the dict under the loop.
        return merge_samples({"target": t, "samples": n} for t, n in list(self.counts.items()))


def merge_samples(rows: Iterable[dict]) -> list[dict]:
    """Sum ``{target, samples}`` rows per target (one report or many
    shards' reports chained), sorted by (-samples, target)."""
    totals: dict[str, int] = {}
    for row in rows:
        totals[row["target"]] = totals.get(row["target"], 0) + int(row["samples"])
    ranked = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
    return [{"target": target, "samples": n} for target, n in ranked]


def layer_shares(rows: Iterable[dict]) -> dict[str, tuple[float, float]]:
    """Per ``repro.<package>`` layer (``repro.sim`` for
    ``repro.sim.engine.Engine.run``; :data:`OUTSIDE` stays itself), its
    sample share ``p`` and standard error ``sqrt(p(1-p)/n)``,
    most-sampled first."""
    per_layer = merge_samples(
        {"target": ".".join(row["target"].split(".")[:2]), "samples": row["samples"]}
        for row in rows
    )
    n = sum(row["samples"] for row in per_layer)
    shares = {row["target"]: row["samples"] / n for row in per_layer}
    return {layer: (p, math.sqrt(p * (1.0 - p) / n)) for layer, p in shares.items()}


def format_samples(rows: list[dict], top: int = 15) -> str:
    """The sample count, each layer's share ± its standard error, then
    the ``top`` most-sampled targets."""
    n = sum(row["samples"] for row in rows)
    lines = [f"samples: {n}", f"{'share':>7s}  {'± se':>6s}  layer"]
    for layer, (p, se) in layer_shares(rows).items():
        lines.append(f"{p:7.3f}  {se:6.3f}  {layer}")
    lines.append(f"{'samples':>7s}  {'share':>6s}  target")
    for row in rows[:top] if top > 0 else rows:
        lines.append(f"{row['samples']:7d}  {row['samples'] / n:6.3f}  {row['target']}")
    return "\n".join(lines)
