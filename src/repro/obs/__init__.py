"""``repro.obs`` — the observability layer (metrics, spans, trace
export, host CPU sampling, run manifests).

Everything here is opt-in: the simulator and harness default to the
shared no-op :data:`NULL_OBS` context, which keeps instrumented code
paths at one-attribute-check cost and leaves simulated-time results
bit-identical to uninstrumented runs.  Enable with::

    from repro.obs import make_obs
    obs = make_obs()                       # or make_obs(causal=True)
    result = run_experiment("p4update", scenario, params, obs=obs)
    obs.snapshot()                         # metrics + span tree

Where the host CPU went is a separate instrument that touches no
simulated state: wrap the run in ``with Sampler() as sampler:`` and
print ``format_samples(sampler.report())`` (:mod:`repro.obs.sampler`).

See ``docs/OBSERVABILITY.md`` for the metric names, the span taxonomy
and the BENCH manifest schema.
"""

from repro.obs.causal import (
    SEGMENTS,
    CausalTracker,
    critical_path,
    iter_causal_jsonl,
    nearest_rank,
    perfetto_trace,
    summarize_attribution,
    write_causal_jsonl,
)
from repro.obs.context import NULL_OBS, ObsContext, make_obs
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    load_manifest,
    manifest_path,
    validate_manifest,
    write_manifest,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.sampler import Sampler, format_samples, merge_samples
from repro.obs.spans import NullSpanTracker, Span, SpanTracker
from repro.obs.tracefile import (
    event_from_dict,
    event_to_dict,
    export_trace_jsonl,
    filter_events,
    import_trace_jsonl,
    iter_filter_events,
    iter_trace_jsonl,
    summarize_events,
)

__all__ = [
    "NULL_OBS",
    "ObsContext",
    "make_obs",
    "SEGMENTS",
    "CausalTracker",
    "critical_path",
    "iter_causal_jsonl",
    "nearest_rank",
    "perfetto_trace",
    "summarize_attribution",
    "write_causal_jsonl",
    "MANIFEST_SCHEMA",
    "build_manifest",
    "load_manifest",
    "manifest_path",
    "validate_manifest",
    "write_manifest",
    "Sampler",
    "format_samples",
    "merge_samples",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NullSpanTracker",
    "Span",
    "SpanTracker",
    "event_from_dict",
    "event_to_dict",
    "export_trace_jsonl",
    "filter_events",
    "import_trace_jsonl",
    "iter_filter_events",
    "iter_trace_jsonl",
    "summarize_events",
]
