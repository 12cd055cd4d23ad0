"""Fleet execution: shards across a process pool, crash-isolated,
resumable, observable.

Execution contract (asserted by ``tests/sweep/``):

* ``--workers 1`` runs every shard inline through the very same
  :func:`repro.sweep.worker.run_shard_payload` body the pool uses, so
  serial and parallel fleets produce byte-identical shard documents;
* a worker exception (or a hard worker-process death, which surfaces
  as :class:`~concurrent.futures.process.BrokenProcessPool`) costs one
  *attempt* for the affected shards, never the fleet: shards retry
  with bounded, seeded exponential backoff and exhaust into a
  structured ``ShardFailure`` record while every completed shard is
  kept;
* every completed shard is persisted to
  ``<cache_dir>/<spec_hash>/shard_<id>.json`` the moment it finishes
  (atomic rename), stamped with its spec hash and code fingerprint, so
  an interrupted sweep resumes with ``--resume`` and re-runs only the
  shards missing from the cache or written by other code; the stamps
  stay in the file, and the fleet's shard documents carry none;
* progress (completed / failed / remaining, ETA from completed-shard
  durations) is pushed through ``repro.obs`` counters, an optional
  callback, and an atomically-updated ``status.json`` that
  ``repro sweep status`` reads from another process.
"""

from __future__ import annotations

import json
import os
import sys
import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from repro.loading import read_stamped, write_json_atomic, write_stamped
from repro.sweep.spec import Shard, SweepSpec
from repro.sweep.worker import failure_record, run_shard_payload

#: Default on-disk shard-result cache location.
DEFAULT_CACHE_DIR = ".sweep_cache"


@dataclass
class SweepProgress:
    """A point-in-time fleet snapshot (what the heartbeat reports)."""

    total: int
    completed: int = 0
    failed: int = 0
    cached: int = 0
    cache_rejected: int = 0     # cache files present but refused
    durations_s: list[float] = field(default_factory=list)
    started_at: float = 0.0

    @property
    def remaining(self) -> int:
        return self.total - self.completed - self.failed

    def eta_s(self, workers: int) -> Optional[float]:
        """Remaining work / throughput, from completed-shard durations."""
        if not self.durations_s or self.remaining == 0:
            return None
        mean = sum(self.durations_s) / len(self.durations_s)
        return mean * self.remaining / max(1, workers)


@dataclass
class SweepRun:
    """Everything one fleet execution produced."""

    shard_docs: list[dict]          # completed shard documents, by index
    failures: list[dict]            # ShardFailure records
    shards_total: int
    cached_shards: int              # satisfied from the resume cache

    @property
    def ok(self) -> bool:
        return not self.failures and len(self.shard_docs) == self.shards_total

    def signature(self) -> str:
        from repro.sweep.merge import results_signature

        return results_signature(self.shard_docs)


def cache_root(spec: SweepSpec, cache_dir: Optional[str] = None) -> str:
    """``<cache_dir>/<spec_hash>/`` — one directory per spec version."""
    base = cache_dir if cache_dir is not None else DEFAULT_CACHE_DIR
    return os.path.join(base, spec.spec_hash())


def shard_cache_path(root: str, shard_id: str) -> str:
    return os.path.join(root, f"shard_{shard_id}.json")


def load_cached_shard(
    root: str, shard: Shard, spec_hash: str,
    progress: Optional[SweepProgress] = None,
) -> Optional[dict]:
    """A previously completed shard document, without the cache's
    stamps, or None.

    A missing file is the normal cold-cache case and silent.  A file
    that exists but cannot be used — refused by
    :func:`~repro.loading.read_stamped` (unreadable, not an object,
    written by other code or for another spec), or holding another
    shard or no results — is named with its reason on one stderr line
    and counted on ``progress`` as ``cache_rejected``."""
    path = shard_cache_path(root, shard.shard_id)
    try:
        doc = read_stamped(path, "cached shard", ValueError, spec_hash)
    except FileNotFoundError:
        return None
    except ValueError as exc:
        reason = str(exc)
    else:
        if doc.get("shard_id") != shard.shard_id:
            reason = (
                f"cached shard {path!r} was written for shard "
                f"{doc.get('shard_id')!r}, not {shard.shard_id!r}"
            )
        elif "results" not in doc or "index" not in doc:
            reason = f"cached shard {path!r} has no results"
        else:
            del doc["spec_hash"], doc["code_fingerprint"]
            return doc
    print(f"warning: {reason}; ignoring it", file=sys.stderr)
    if progress is not None:
        progress.cache_rejected += 1
    return None


def scan_cache(
    root: str, shards: list[Shard], spec_hash: str,
    progress: Optional[SweepProgress] = None,
) -> tuple[dict[int, dict], list[Shard]]:
    """The cached documents of ``shards`` by shard index, and the shards
    :func:`load_cached_shard` found none for, in ``shards`` order."""
    docs: dict[int, dict] = {}
    missing: list[Shard] = []
    for shard in shards:
        doc = load_cached_shard(root, shard, spec_hash, progress)
        if doc is None:
            missing.append(shard)
        else:
            docs[shard.index] = doc
    return docs, missing


def write_status(
    root: str, spec: SweepSpec, progress: SweepProgress, workers: int,
    state: str,
) -> None:
    eta = progress.eta_s(workers)
    write_json_atomic(
        os.path.join(root, "status.json"),
        {
            "name": spec.name,
            "spec_hash": spec.spec_hash(),
            "state": state,
            "shards_total": progress.total,
            "completed": progress.completed,
            "failed": progress.failed,
            "remaining": progress.remaining,
            "cached": progress.cached,
            "cache_rejected": progress.cache_rejected,
            "workers": workers,
            "eta_s": eta,
            "elapsed_s": (
                time.perf_counter() - progress.started_at  # repro: ignore[wall-clock] status heartbeat
                if progress.started_at else 0.0
            ),
            "updated_unix": time.time(),  # repro: ignore[wall-clock] status heartbeat
        },
    )


def read_status(root: str) -> Optional[dict]:
    try:
        with open(os.path.join(root, "status.json"), encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    return doc if isinstance(doc, dict) else None


def run_sweep(
    spec: SweepSpec,
    workers: int = 1,
    cache_dir: Optional[str] = None,
    resume: bool = False,
    retries: int = 2,
    backoff_base_s: float = 0.05,
    obs: Optional[Any] = None,
    progress: Optional[Callable[[SweepProgress, str], None]] = None,
    profile: bool = False,
    inject: Optional[dict] = None,
) -> SweepRun:
    """Execute (or resume) a sweep and return the collected fleet.

    ``inject`` is a test-only fault hook forwarded to the workers (see
    :func:`repro.sweep.worker._maybe_inject`); it is deliberately not
    part of the spec so it never changes the spec hash."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    started = time.perf_counter()  # repro: ignore[wall-clock] fleet wall-time bookkeeping
    shards = spec.expand()
    spec_digest = spec.spec_hash()
    root = cache_root(spec, cache_dir)
    os.makedirs(root, exist_ok=True)

    state = SweepProgress(total=len(shards), started_at=started)
    docs, pending = (
        scan_cache(root, shards, spec_digest, state) if resume else ({}, shards)
    )
    state.completed = state.cached = len(docs)

    def notify(event: str) -> None:
        if obs is not None and getattr(obs, "enabled", False):
            obs.metrics.gauge("sweep_shards_completed").set(state.completed)
            obs.metrics.gauge("sweep_shards_failed").set(state.failed)
            obs.metrics.gauge("sweep_shards_remaining").set(state.remaining)
            obs.count("sweep_progress_events", event=event)
        write_status(root, spec, state, workers, event)
        if progress is not None:
            progress(state, event)

    def payload_for(shard: Shard) -> dict:
        payload = dict(shard.payload)
        if profile:
            payload["profile"] = True
        if inject is not None:
            payload["_inject"] = inject
        return payload

    def on_success(shard: Shard, doc: dict) -> None:
        write_stamped(shard_cache_path(root, shard.shard_id), doc, spec_digest)
        docs[shard.index] = doc
        state.completed += 1
        state.durations_s.append(
            float(doc.get("wall", {}).get("duration_s", 0.0))
        )
        notify("shard_completed")

    failures: list[dict] = []

    def on_exhausted(shard: Shard, attempts: int, exc: BaseException) -> None:
        failures.append(
            failure_record(shard.shard_id, shard.index, attempts, exc)
        )
        state.failed += 1
        notify("shard_failed")

    notify("started")
    if workers == 1:
        _run_serial(
            pending, payload_for, on_success, on_exhausted,
            retries, backoff_base_s, spec_digest,
        )
    else:
        _run_pool(
            pending, payload_for, on_success, on_exhausted,
            workers, retries, backoff_base_s, spec_digest,
        )
    notify("finished")

    ordered = [docs[i] for i in sorted(docs)]
    return SweepRun(
        shard_docs=ordered,
        failures=sorted(failures, key=lambda f: int(f["index"])),
        shards_total=len(shards),
        cached_shards=state.cached,
    )


def _backoff_s(
    spec_digest: str, shard_id: str, attempt: int, base_s: float
) -> float:
    """Bounded, seeded backoff: exponential in the attempt number with
    deterministic per-(spec, shard, attempt) jitter."""
    if base_s <= 0:
        return 0.0
    seed_material = int(spec_digest[:8], 16)
    rng = np.random.default_rng([seed_material, hash_stable(shard_id), attempt])
    jitter = float(rng.uniform(0.0, base_s))
    return min(base_s * (2.0 ** (attempt - 1)) + jitter, 5.0)


def hash_stable(text: str) -> int:
    """Process-stable string hash (``hash()`` is salted)."""
    import hashlib

    return int.from_bytes(
        hashlib.sha256(text.encode("utf-8")).digest()[:4], "big"
    )


def _run_serial(
    pending: list[Shard],
    payload_for: Callable[[Shard], dict],
    on_success: Callable[[Shard, dict], None],
    on_exhausted: Callable[[Shard, int, BaseException], None],
    retries: int,
    backoff_base_s: float,
    spec_digest: str,
) -> None:
    for shard in pending:
        attempt = 0
        while True:
            attempt += 1
            try:
                doc = run_shard_payload(payload_for(shard))
            except Exception as exc:  # noqa: B902 - shard isolation boundary
                if attempt > retries:
                    on_exhausted(shard, attempt, exc)
                    break
                time.sleep(  # repro: ignore[blocking-in-service] retry backoff
                    _backoff_s(spec_digest, shard.shard_id, attempt,
                               backoff_base_s)
                )
            else:
                on_success(shard, doc)
                break


def _run_pool(
    pending: list[Shard],
    payload_for: Callable[[Shard], dict],
    on_success: Callable[[Shard, dict], None],
    on_exhausted: Callable[[Shard, int, BaseException], None],
    workers: int,
    retries: int,
    backoff_base_s: float,
    spec_digest: str,
) -> None:
    """Wave-based pool execution.

    Each wave submits every still-pending shard to a fresh pool.  A
    future that raises counts one attempt against its shard; a hard
    pool crash (``BrokenProcessPool``) fails every in-flight future of
    that wave the same way — completed shards are already persisted,
    and the next wave rebuilds the pool, so one poisoned shard can at
    worst cost its co-flyers ``retries`` extra attempts, never their
    results."""
    # Imported here: it loads multiprocessing, which an inline
    # (``--workers 1``) fleet never needs.
    from concurrent.futures import ProcessPoolExecutor

    attempts: dict[int, int] = {}
    wave = list(pending)
    round_no = 0
    while wave:
        round_no += 1
        retry_next: list[Shard] = []
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            futures = {
                pool.submit(run_shard_payload, payload_for(shard)): shard
                for shard in wave
            }
            outstanding = set(futures)
            while outstanding:
                done, outstanding = wait(
                    outstanding, return_when=FIRST_COMPLETED
                )
                for future in sorted(
                    done, key=lambda f: futures[f].index
                ):
                    shard = futures[future]
                    try:
                        doc = future.result()
                    # BrokenProcessPool (a worker died hard) is an
                    # Exception subclass; named for the reader only.
                    except Exception as exc:
                        attempts[shard.index] = attempts.get(shard.index, 0) + 1
                        if attempts[shard.index] > retries:
                            on_exhausted(shard, attempts[shard.index], exc)
                        else:
                            retry_next.append(shard)
                    else:
                        on_success(shard, doc)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        wave = sorted(retry_next, key=lambda s: s.index)
        if wave:
            time.sleep(  # repro: ignore[blocking-in-service] retry backoff
                _backoff_s(spec_digest, wave[0].shard_id, round_no,
                           backoff_base_s)
            )
