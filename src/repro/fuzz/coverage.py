"""Coverage signals driving fuzz corpus retention.

Coverage keys are short strings mined from what already exists rather
than from new instrumentation:

* oracle behaviour — violation kinds hit (``plan:*``,
  ``interference:*``, ``chaos:*``, ``serve:*``, ``div:*``), recovery
  paths taken (retransmissions, reroutes, parks), orchestrator
  branches (merge/park/reject outcome kinds, interference-gate
  actions);
* obs counters — every metric a run incremented, exported through
  :meth:`repro.obs.context.ObsContext.coverage_keys` and prefixed
  ``obs:`` here.

A case is retained in the mutation corpus exactly when it contributes
at least one key the campaign has not seen, so campaigns explore the
behaviour space instead of resampling it.
"""

from __future__ import annotations

from typing import Any


def obs_coverage_keys(obs: Any) -> list[str]:
    """``obs:``-prefixed keys for every counter the run touched."""
    if obs is None or not getattr(obs, "enabled", False):
        return []
    return [f"obs:{name}" for name in obs.coverage_keys()]
