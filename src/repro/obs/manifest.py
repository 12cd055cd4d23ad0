"""Run manifests: the diffable ``BENCH_<name>.json`` trajectory files.

Every benchmark (and any instrumented experiment) emits a manifest
recording *what ran* (name, params, seed, code version), *what it
measured* (a results dict — the same numbers the bench prints) and
*what the observability layer saw* (metric snapshots, the phase-span
tree, optionally an engine profile).  Manifests from successive PRs
diff cleanly, which is what turns the bench suite into a trajectory.

Schema (version 1) — validated by :func:`validate_manifest`:

* ``schema``  int, == 1
* ``name``    str, non-empty
* ``version`` str  (package version, plus git describe when available)
* ``created`` float (unix seconds)
* ``params``  dict
* ``seed``    int or null
* ``results`` dict
* ``metrics`` dict  (MetricsRegistry.snapshot() shape)
* ``spans``   list  (SpanTracker.tree() shape)
* ``profile`` list, optional (EngineProfiler.report() shape)
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from typing import Optional

MANIFEST_SCHEMA = 1

#: Environment override for where BENCH_*.json files land.
BENCH_DIR_ENV = "REPRO_BENCH_DIR"

_REQUIRED_FIELDS = {
    "schema": int,
    "name": str,
    "version": str,
    "created": (int, float),
    "params": dict,
    "seed": (int, type(None)),
    "results": dict,
    "metrics": dict,
    "spans": list,
}


def repo_version() -> str:
    """Package version, enriched with ``git describe`` when available."""
    from repro.version import __version__

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))))
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=root, capture_output=True, text=True, timeout=5,
        )
        if described.returncode == 0 and described.stdout.strip():
            return f"{__version__}+g{described.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):
        pass
    return __version__


def build_manifest(
    name: str,
    *,
    params: Optional[dict] = None,
    results: Optional[dict] = None,
    seed: Optional[int] = None,
    obs=None,
) -> dict:
    """Assemble a schema-valid manifest dict (not yet written)."""
    metrics: dict = {}
    spans: list = []
    profile = None
    if obs is not None:
        captured = obs.snapshot()
        metrics = captured.get("metrics", {})
        spans = captured.get("spans", [])
        profile = captured.get("profile")
    doc = {
        "schema": MANIFEST_SCHEMA,
        "name": name,
        "version": repo_version(),
        "created": time.time(),  # repro: ignore[wall-clock] manifest timestamp
        "params": dict(params or {}),
        "seed": seed,
        "results": dict(results or {}),
        "metrics": metrics,
        "spans": spans,
    }
    if profile is not None:
        doc["profile"] = profile
    validate_manifest(doc)
    return doc


def validate_manifest(doc: dict) -> dict:
    """Raise ``ValueError`` listing every schema violation; else return
    ``doc`` unchanged."""
    problems = []
    if not isinstance(doc, dict):
        raise ValueError(f"manifest must be a dict, got {type(doc).__name__}")
    for field, expected in _REQUIRED_FIELDS.items():
        if field not in doc:
            problems.append(f"missing field {field!r}")
        elif not isinstance(doc[field], expected):
            problems.append(
                f"field {field!r} has type {type(doc[field]).__name__}"
            )
    if isinstance(doc.get("schema"), int) and doc["schema"] != MANIFEST_SCHEMA:
        problems.append(f"unsupported schema version {doc['schema']}")
    if isinstance(doc.get("name"), str) and not doc["name"]:
        problems.append("empty manifest name")
    if "profile" in doc and not isinstance(doc["profile"], list):
        problems.append("field 'profile' must be a list")
    if problems:
        raise ValueError("invalid manifest: " + "; ".join(problems))
    return doc


def manifest_path(name: str, out_dir: Optional[str] = None) -> str:
    """``<out_dir>/BENCH_<name>.json`` (default: repo root or
    ``$REPRO_BENCH_DIR``)."""
    if out_dir is None:
        out_dir = os.environ.get(BENCH_DIR_ENV)
    if out_dir is None:
        out_dir = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))))
    return os.path.join(out_dir, f"BENCH_{name}.json")


def write_manifest(
    name: str,
    *,
    params: Optional[dict] = None,
    results: Optional[dict] = None,
    seed: Optional[int] = None,
    obs=None,
    out_dir: Optional[str] = None,
) -> str:
    """Build and write a manifest, replacing any file already at its
    path, and return the path."""
    path = manifest_path(name, out_dir)
    doc = build_manifest(
        name, params=params, results=results, seed=seed, obs=obs
    )
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_manifest(path: str) -> dict:
    """Read and validate a manifest file."""
    with open(path, encoding="utf-8") as handle:
        return validate_manifest(json.load(handle))
