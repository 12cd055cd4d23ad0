"""The observability context: one handle carrying metrics + spans
(+ optionally a causal tracker) through every layer.

Design contract:

* every node/network/scheduler holds an ``obs`` reference, defaulting
  to the module-level :data:`NULL_OBS` singleton;
* a metric takes one of three shapes, cheapest first for a run
  without metrics:

  - *derived*: a pure count of trace events is a view of the trace
    (:mod:`repro.obs.derived`), subscribed by :meth:`ObsContext.bind`;
    its event site has no hook at all;
  - *helper*: a site that fires only on failure, alarm or opt-in paths
    calls :meth:`~ObsContext.count` / :meth:`~ObsContext.observe` /
    :meth:`~ObsContext.gauge_set`, which guard themselves;
  - *guarded family*: a site that fires on fault-free runs guards with
    ``if self.obs.enabled:``, so the disabled mode costs one attribute
    read and allocates nothing, and subscripts its metric family
    (``MetricsRegistry.family``), bound once where the owner receives
    ``obs``, instead of resolving a name and a label set per event;

* observability NEVER touches simulated time or the RNG streams — a
  run with obs on and obs off produces the bit-identical simulated
  trace (asserted by ``tests/obs/test_determinism_obs.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.obs.registry import MetricsRegistry, NullRegistry
from repro.obs.spans import NullSpanTracker, SpanTracker

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.causal import CausalTracker


class ObsContext:
    """Bundle of a metrics registry, a span tracker and an optional
    per-request causal tracker, shared by every layer of one run."""

    __slots__ = ("metrics", "spans", "causal", "enabled")

    def __init__(
        self,
        metrics: MetricsRegistry,
        spans: SpanTracker,
        causal: Optional["CausalTracker"] = None,
    ) -> None:
        self.metrics = metrics
        self.spans = spans
        # Per-request causal tracing (repro.obs.causal): a trace
        # subscriber, attached to the run's trace by bind().
        self.causal = causal
        # The registry's class constant, copied so the hook-site
        # guards on fault-free paths are a slot read.
        self.enabled: bool = metrics.enabled

    def bind(self, network) -> None:
        """Point the span tracker's simulated clock at ``network``'s
        engine and subscribe the derived metrics to its trace (when
        enabled), and the causal tracker (when set, metrics or not)."""
        if self.enabled:
            # Lazy: repro.obs.derived imports repro.sim.trace, whose
            # package imports repro.sim.node, which imports this module.
            from repro.obs.derived import DerivedMetrics

            engine = network.engine
            self.spans.sim_clock = lambda: float(engine.now)
            view = DerivedMetrics(self.metrics)
            network.trace.subscribe(view, view.routes)
        if self.causal is not None:
            network.trace.subscribe(self.causal, self.causal.routes)

    def count(self, name: str, amount: float = 1.0, **labels) -> None:
        """Convenience: increment a labeled counter (guarded)."""
        if self.enabled:
            self.metrics.counter(name, **labels).inc(amount)

    def observe(self, name: str, value: float, **labels) -> None:
        """Convenience: record a labeled histogram sample (guarded)."""
        if self.enabled:
            self.metrics.histogram(name, **labels).observe(value)

    def gauge_set(self, name: str, value: float, **labels) -> None:
        """Convenience: set a labeled gauge (guarded)."""
        if self.enabled:
            self.metrics.gauge(name, **labels).set(value)

    def snapshot(self) -> dict:
        """Everything this context captured, JSON-safe."""
        return {"metrics": self.metrics.snapshot(), "spans": self.spans.tree()}

    def coverage_keys(self) -> list[str]:
        """Names of every metric this run actually moved.

        The fuzzer's coverage signal (:mod:`repro.fuzz.coverage`):
        a counter/gauge with a nonzero value or a histogram with
        samples counts as "touched".  Sorted, so callers get a
        deterministic view regardless of recording order."""
        return sorted({
            name for name, _labels, instrument in self.metrics
            if getattr(instrument, "value", 0.0) != 0.0 or getattr(instrument, "count", 0) > 0
        })


def make_obs(causal: bool = False) -> ObsContext:
    """A fresh enabled context (optionally with per-request causal
    tracing)."""
    tracker = None
    if causal:
        from repro.obs.causal import CausalTracker

        tracker = CausalTracker()
    return ObsContext(MetricsRegistry(), SpanTracker(), causal=tracker)


#: Shared disabled context — the default ``obs`` everywhere.
NULL_OBS = ObsContext(NullRegistry(), NullSpanTracker())
