"""The per-shard execution body — identical in-process and in a pool.

:func:`run_shard_payload` is the single entry point both execution
paths share: the serial ``--workers 1`` path calls it inline, the
:mod:`concurrent.futures` pool pickles the payload dict to a child
process.  Either way each shard:

1. builds a **fresh** obs context when instrumentation was requested
   (per-process metric registries — nothing shared, nothing racy), and
   with ``profile`` samples the run's CPU (:mod:`repro.obs.sampler`)
   into the document's ``profile`` rows, outside ``results``;
2. runs the payload's kind (:func:`repro.sweep.kinds.resolve_kind`)
   with seeds derived entirely from the payload, on a deployment of its
   own (packet numbering included), so what the process ran before
   cannot show in the shard;
3. returns a JSON-safe shard document that echoes the payload's
   ``shard_id``, ``index``, ``kind``, ``seed`` and axis ``key`` (from
   :meth:`repro.sweep.spec.SweepSpec.expand`) and whose ``results``
   subtree contains only simulated-time (deterministic) values —
   wall-clock measurements are quarantined under ``wall`` so the
   fleet's aggregate signature is independent of host speed and worker
   count.

The bit-identity of (1)-(3) across process boundaries is asserted by
``tests/sweep/test_determinism.py``.
"""

from __future__ import annotations

import contextlib
import math
import os
import time
import traceback
from typing import Any, Optional

import numpy as np

from repro.obs.sampler import Sampler
from repro.sweep.kinds import resolve_kind


class InjectedShardFault(RuntimeError):
    """Raised by the test-only fault hook (see :func:`_maybe_inject`)."""


def run_shard_payload(payload: dict) -> dict:
    """Execute one shard and return its JSON-safe document."""
    _maybe_inject(payload)
    obs = _build_obs(payload)
    started = time.perf_counter()  # repro: ignore[wall-clock] shard wall-time bookkeeping
    with Sampler() if payload.get("profile") else contextlib.nullcontext() as sampler:
        results = resolve_kind(payload["kind"]).run_shard(payload, obs)
    duration = time.perf_counter() - started  # repro: ignore[wall-clock] shard wall-time bookkeeping

    # Runner-reported wall-clock measurements are lifted out of the
    # results subtree: ``results`` must stay deterministic.
    wall: dict[str, Any] = dict(results.pop("_wall", {}))
    wall.update(duration_s=duration, pid=os.getpid())
    # Full causal DAGs (serve runs with causal tracing) ride the shard
    # document outside ``results``: deterministic but bulky, they are
    # written to a sidecar file rather than hashed into the aggregate
    # signature (the compact ``attribution`` stays inside results).
    causal = results.pop("_causal", None)
    doc: dict[str, Any] = {
        "shard_id": payload["shard_id"],
        "index": payload["index"],
        "kind": payload["kind"],
        "seed": payload.get("seed"),
        "key": dict(payload["key"]),
        "results": _json_safe(results),
        "wall": _json_safe(wall),
    }
    if causal is not None:
        doc["causal"] = _json_safe(causal)
    if obs is not None:
        doc.update(_json_safe(obs.snapshot()))   # metrics + spans
    if sampler is not None:
        doc["profile"] = sampler.report()
    return doc


# -- helpers -----------------------------------------------------------------


def _build_obs(payload: dict) -> Optional[Any]:
    if not (payload.get("obs") or payload.get("profile")):
        return None
    from repro.obs.context import make_obs

    return make_obs()


def _maybe_inject(payload: dict) -> None:
    """Test-only crash hook, threaded through ``run_sweep(inject=...)``.

    Modes: ``always`` raises on every attempt; ``once`` raises on the
    first attempt per shard (a marker file under ``marker_dir`` keeps
    cross-attempt state); ``kill`` hard-exits the worker process to
    exercise pool-crash isolation."""
    inject = payload.get("_inject")
    if not inject or payload["shard_id"] not in inject.get("shard_ids", ()):
        return
    mode = inject.get("mode", "always")
    if mode == "always":
        raise InjectedShardFault(f"injected failure in {payload['shard_id']}")
    if mode == "once":
        marker = os.path.join(
            inject["marker_dir"], f"{payload['shard_id']}.failed-once"
        )
        if not os.path.exists(marker):
            with open(marker, "w", encoding="utf-8") as handle:
                handle.write("injected\n")
            raise InjectedShardFault(
                f"injected one-shot failure in {payload['shard_id']}"
            )
        return
    if mode == "kill":
        os._exit(13)
    raise ValueError(f"unknown injection mode {mode!r}")


def _json_safe(obj: Any) -> Any:
    """Recursively convert to plain JSON types; non-finite floats
    become ``None`` (strict-JSON manifests, diffable everywhere)."""
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (bool, str)) or obj is None:
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return value if math.isfinite(value) else None
    return str(obj)


def failure_record(
    shard_id: str, index: int, attempts: int, exc: BaseException
) -> dict:
    """The structured ``ShardFailure`` document (JSON-safe)."""
    tb = "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )
    return {
        "shard_id": shard_id,
        "index": index,
        "attempts": attempts,
        "error_type": type(exc).__name__,
        "message": str(exc),
        "traceback_tail": tb[-2000:],
    }
