"""repro.serve — tenant-facing concurrent update-request service.

Layers an admission queue (bounded depth, token bucket, shed
policies) and a dependency-aware orchestrator (per-flow version-slot
serialization, optional shared-switch serialization, merge of queued
same-flow requests) on top of the verified prepare/push update path,
with SLO metrics and deterministic benchmark manifests.
"""

# Re-exported for benchmarks/perf/workloads.py only; every other caller
# imports them from their defining modules.
from repro.serve.service import run_service
from repro.serve.spec import ServeSpec
