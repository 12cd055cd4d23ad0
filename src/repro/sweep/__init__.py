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

from repro.sweep.executor import (
    DEFAULT_CACHE_DIR,
    SweepProgress,
    SweepRun,
    cache_root,
    load_cached_shard,
    read_status,
    run_sweep,
)
from repro.sweep.cli import add_fleet_flags, run_fleet
from repro.sweep.kinds import KIND_TABLE, SweepKind, resolve_kind
from repro.sweep.merge import (
    build_sweep_results,
    merge_metrics,
    results_signature,
    validate_sweep_results,
)
from repro.sweep.spec import (
    Shard,
    SweepSpec,
    SweepSpecError,
    derive_shard_seed,
    load_sweep_spec,
    load_sweep_spec_file,
)
from repro.sweep.worker import run_shard_payload

__all__ = [
    "DEFAULT_CACHE_DIR",
    "KIND_TABLE",
    "Shard",
    "SweepKind",
    "SweepProgress",
    "SweepRun",
    "SweepSpec",
    "SweepSpecError",
    "add_fleet_flags",
    "build_sweep_results",
    "cache_root",
    "derive_shard_seed",
    "load_cached_shard",
    "load_sweep_spec",
    "load_sweep_spec_file",
    "merge_metrics",
    "read_status",
    "resolve_kind",
    "results_signature",
    "run_fleet",
    "run_shard_payload",
    "run_sweep",
    "validate_sweep_results",
]
