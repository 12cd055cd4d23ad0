"""``repro.sweep`` — parallel experiment-fleet orchestration.

Expands a declarative JSON sweep spec (scenario x topology x seed x
system, or any other registered kind — see :mod:`repro.sweep.kinds`)
into a deterministic shard list,
executes the shards across a process pool with per-worker isolation
and crash containment, and merges the per-shard results into one
consolidated, resumable ``BENCH_sweep_<name>.json`` manifest whose
aggregate signature is independent of worker count.

See ``docs/SWEEP.md`` for the spec format and the determinism /
resume contract, and ``examples/sweep_smoke.json`` for a starter spec.
"""

# Re-exported for benchmarks/perf/workloads.py only; every other caller
# imports them from their defining modules.
from repro.sweep.executor import run_sweep
from repro.sweep.merge import build_sweep_results
from repro.sweep.spec import load_sweep_spec
