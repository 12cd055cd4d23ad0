"""Deterministic aggregation of per-shard results.

The consolidated sweep manifest (``BENCH_sweep_<name>.json``) is built
from the shard documents alone, so it is reproducible from the on-disk
shard cache without re-running anything (``repro sweep merge``), and —
because shards are sorted by index and the signature covers only the
deterministic subtrees — byte-identical no matter how many workers
produced the shards or how many resume rounds it took.

``signature`` is the SHA-256 over the canonical JSON of every shard's
``(shard_id, index, kind, seed, results)`` view.  Wall-clock material
(``wall``, ``spans``, ``profile``) and merge bookkeeping are excluded
by construction, not by filtering: the worker already quarantines
host-time measurements outside ``results``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Optional

from repro.sweep.kinds import resolve_kind

#: Shard-document fields covered by the aggregate signature.
DETERMINISTIC_SHARD_FIELDS = ("shard_id", "index", "kind", "seed", "results")


def shard_deterministic_view(doc: dict) -> dict:
    """The signature-relevant projection of one shard document."""
    return {name: doc.get(name) for name in DETERMINISTIC_SHARD_FIELDS}


def results_signature(shard_docs: list[dict]) -> str:
    """SHA-256 over the sorted, deterministic shard views."""
    ordered = sorted(shard_docs, key=lambda d: int(d["index"]))
    canonical = json.dumps(
        [shard_deterministic_view(doc) for doc in ordered],
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def merge_metrics(snapshots: list[dict]) -> dict:
    """Merge per-shard ``MetricsRegistry.snapshot()`` dicts.

    Counters and gauges sum per (name, labels); histograms combine
    exactly mergeable moments (count/sum/min/max, recomputed mean).
    Streaming quantiles are not cross-shard mergeable from snapshots
    and are dropped — per-shard quantiles stay available in the shard
    documents."""
    merged: dict[str, dict[str, dict]] = {}
    for snapshot in snapshots:
        for name, series in snapshot.items():
            for row in series:
                labels = row.get("labels", {})
                label_key = json.dumps(labels, sort_keys=True)
                slot = merged.setdefault(name, {}).get(label_key)
                if slot is None:
                    slot = {"labels": dict(labels), "type": row.get("type")}
                    merged[name][label_key] = slot
                _merge_row(slot, row)
    out: dict[str, list] = {}
    for name in sorted(merged):
        out[name] = [
            merged[name][key] for key in sorted(merged[name])
        ]
    return out


def _merge_row(slot: dict, row: dict) -> None:
    kind = row.get("type")
    if kind in ("counter", "gauge"):
        slot["value"] = slot.get("value", 0.0) + float(row.get("value", 0.0))
        return
    # histogram
    count = int(row.get("count", 0))
    if count == 0:
        slot.setdefault("count", 0)
        return
    slot["count"] = slot.get("count", 0) + count
    slot["sum"] = slot.get("sum", 0.0) + float(row.get("sum", 0.0))
    slot["min"] = min(slot.get("min", float(row["min"])), float(row["min"]))
    slot["max"] = max(slot.get("max", float(row["max"])), float(row["max"]))
    slot["mean"] = slot["sum"] / slot["count"]


def merge_profiles(profiles: list[list]) -> list[dict]:
    """Merge per-shard engine-profiler reports into one ranking.

    Calls and total wall time sum per callback target; ``max_us`` is
    the max across shards, ``mean_us`` is recomputed.  This is the
    multi-run input the profile-guided optimization work wants: one
    table ranking the costliest callbacks across a whole fleet."""
    totals: dict[str, dict] = {}
    for report in profiles:
        for row in report:
            target = row["target"]
            slot = totals.setdefault(
                target,
                {"target": target, "calls": 0, "total_ms": 0.0, "max_us": 0.0},
            )
            slot["calls"] += int(row.get("calls", 0))
            slot["total_ms"] += float(row.get("total_ms", 0.0))
            slot["max_us"] = max(slot["max_us"], float(row.get("max_us", 0.0)))
    merged = []
    for slot in totals.values():
        calls = slot["calls"]
        slot["mean_us"] = (slot["total_ms"] * 1000.0 / calls) if calls else 0.0
        merged.append(slot)
    merged.sort(key=lambda r: (-r["total_ms"], r["target"]))
    return merged


def format_profile(report: list[dict], top: int = 15) -> str:
    lines = [
        f"{'calls':>9s}  {'total ms':>10s}  {'mean us':>9s}  "
        f"{'max us':>9s}  target"
    ]
    for row in report[:top] if top > 0 else report:
        lines.append(
            f"{row['calls']:9d}  {row['total_ms']:10.2f}  "
            f"{row['mean_us']:9.1f}  {row['max_us']:9.1f}  {row['target']}"
        )
    return "\n".join(lines)


def fleet_summary(
    shard_docs: list[dict], axis: Optional[str] = None
) -> dict[str, Any]:
    """Determinism probe plus outcome ledger of a replica fleet.

    ``deterministic`` compares per-shard signatures only across shards
    of the same cell — the seed, plus the ``axis`` results field when
    given (a multi-seed sweep legitimately differs per seed); each
    cell's signature set must be a singleton across resumes and worker
    counts."""
    cells: dict[tuple, set[str]] = {}
    outcomes: dict[str, int] = {}
    for doc in shard_docs:
        results = doc["results"]
        cell: tuple = (int(doc["seed"]),)
        if axis:
            cell += (str(results.get(axis)),)
        cells.setdefault(cell, set()).add(str(results.get("signature")))
        for outcome, count in (results.get("outcomes") or {}).items():
            outcomes[outcome] = outcomes.get(outcome, 0) + int(count)
    return {
        "runs": len(shard_docs),
        "deterministic": all(len(sigs) <= 1 for sigs in cells.values()),
        "signatures_by_cell" if axis else "signatures_by_seed": {
            "/".join(str(part) for part in cell): sorted(sigs)
            for cell, sigs in sorted(cells.items())
        },
        "outcomes": dict(sorted(outcomes.items())),
        "requests": sum(
            int(d["results"].get("requests", 0)) for d in shard_docs
        ),
        "completed": sum(
            int(d["results"].get("completed", 0)) for d in shard_docs
        ),
        "violations": sum(
            len(d["results"].get("violations") or []) for d in shard_docs
        ),
        "consistent": all(d["results"].get("consistent") for d in shard_docs),
        "invariants_ok": all(
            d["results"].get("invariants_ok") for d in shard_docs
        ),
    }


# -- the consolidated manifest -----------------------------------------------


def build_sweep_results(
    spec: Any,
    shard_docs: list[dict],
    failures: list[dict],
    shards_total: int,
) -> dict:
    """The ``results`` tree of the consolidated sweep manifest."""
    ordered = sorted(shard_docs, key=lambda d: int(d["index"]))
    docs_with_keys = attach_shard_keys(spec, ordered)
    results: dict[str, Any] = {
        "spec_hash": spec.spec_hash(),
        "signature": results_signature(ordered),
        "shards_total": shards_total,
        "shards_completed": len(ordered),
        "shards_failed": len(failures),
        "failures": sorted(failures, key=lambda f: int(f["index"])),
        "aggregates": resolve_kind(spec.kind).aggregate(docs_with_keys),
        "shards": docs_with_keys,
    }
    validate_sweep_results(results)
    return results


def attach_shard_keys(spec: Any, ordered: list[dict]) -> list[dict]:
    """Re-derive each shard's axis key from the spec (keys are spec
    structure, not worker output — workers stay dumb)."""
    by_index = {shard.index: shard for shard in spec.expand()}
    enriched = []
    for doc in ordered:
        shard = by_index.get(int(doc["index"]))
        merged = dict(doc)
        if shard is not None:
            merged["key"] = dict(shard.key)
        enriched.append(merged)
    return enriched


def validate_sweep_results(results: dict) -> dict:
    """Schema check for the consolidated results tree."""
    problems = []
    for name, kind in (
        ("spec_hash", str),
        ("signature", str),
        ("shards_total", int),
        ("shards_completed", int),
        ("shards_failed", int),
        ("failures", list),
        ("aggregates", dict),
        ("shards", list),
    ):
        if name not in results:
            problems.append(f"missing field {name!r}")
        elif not isinstance(results[name], kind):
            problems.append(
                f"field {name!r} has type {type(results[name]).__name__}"
            )
    if not problems:
        if results["shards_completed"] != len(results["shards"]):
            problems.append("shards_completed != len(shards)")
        if results["shards_failed"] != len(results["failures"]):
            problems.append("shards_failed != len(failures)")
        for doc in results["shards"]:
            for field in DETERMINISTIC_SHARD_FIELDS:
                if field not in doc:
                    problems.append(
                        f"shard document missing field {field!r}"
                    )
                    break
        for failure in results["failures"]:
            for field in ("shard_id", "index", "attempts", "error_type",
                          "message"):
                if field not in failure:
                    problems.append(f"failure record missing {field!r}")
                    break
    if problems:
        raise ValueError("invalid sweep results: " + "; ".join(problems))
    return results


def merge_shard_obs(results: dict) -> dict:
    """Fold the shard documents' own obs captures into ``results``
    (summed counters, combined histogram moments, merged profiles) so
    the consolidated manifest is self-contained."""
    snapshots = [d["metrics"] for d in results["shards"] if d.get("metrics")]
    if snapshots:
        results["merged_metrics"] = merge_metrics(snapshots)
    profiles = [d["profile"] for d in results["shards"] if d.get("profile")]
    if profiles:
        results["merged_profile"] = merge_profiles(profiles)
    return results


def write_results_manifest(
    name: str,
    spec: Any,
    results: dict,
    out_dir: Optional[str] = None,
    obs: Optional[Any] = None,
) -> str:
    """Write a fleet's merged results tree as ``BENCH_<name>.json`` and
    return its path."""
    from repro.obs.manifest import write_manifest

    return write_manifest(
        name,
        params=spec.to_dict(),
        results=results,
        seed=spec.seed,
        obs=obs if obs is not None and getattr(obs, "enabled", False) else None,
        out_dir=out_dir,
    )


def write_sweep_manifest(
    spec: Any,
    shard_docs: list[dict],
    failures: list[dict],
    shards_total: int,
    out_dir: Optional[str] = None,
    obs: Optional[Any] = None,
) -> str:
    """Write ``BENCH_sweep_<name>.json`` and return its path."""
    results = build_sweep_results(spec, shard_docs, failures, shards_total)
    return write_results_manifest(
        f"sweep_{spec.name}", spec, merge_shard_obs(results), out_dir, obs
    )
