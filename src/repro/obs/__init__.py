"""``repro.obs`` — the observability layer (metrics, spans, trace
export, host CPU sampling, run manifests).

Everything here is opt-in: the simulator and harness default to the
shared no-op :data:`NULL_OBS` context, which keeps instrumented code
paths at one-attribute-check cost and leaves simulated-time results
bit-identical to uninstrumented runs.  Enable with::

    from repro.obs.context import make_obs
    obs = make_obs()                       # or make_obs(causal=True)
    result = run_experiment("p4update", scenario, params, obs=obs)
    obs.snapshot()                         # metrics + span tree

Where the host CPU went is a separate instrument that touches no
simulated state: wrap the run in ``with Sampler() as sampler:`` and
print ``format_samples(sampler.report())`` (:mod:`repro.obs.sampler`).

See ``docs/OBSERVABILITY.md`` for the metric names, the span taxonomy
and the BENCH manifest schema.
"""

# Re-exported for benchmarks/perf/workloads.py only; every other caller
# imports it from repro.obs.context.
from repro.obs.context import make_obs
