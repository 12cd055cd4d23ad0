#!/usr/bin/env python
"""Compare two ``BENCH_<name>.json`` run manifests (or directories of
them) and fail on regressions beyond a tolerance.

Usage::

    python scripts/bench_compare.py BASELINE CURRENT [--tolerance 0.10]

``BASELINE`` and ``CURRENT`` are either two manifest files or two
directories scanned for ``BENCH_*.json``.  Numeric leaves of each
manifest's ``results`` tree are compared pairwise; a value that grew
by more than its tolerance (relative) counts as a regression — every
number a manifest records (update times, preparation times, operation
counts, ratios, loss counts) is a cost, so "bigger" is "worse".

Tolerances are per metric:

* ``--rule 'PATTERN=TOL'`` assigns a relative tolerance to every key
  whose dotted path matches the fnmatch ``PATTERN`` (first matching
  rule wins); use this for wall-clock-derived fields that jitter on
  shared CI runners, e.g. ``--rule '*_s=0.50'``.
* ``--exact PATTERN`` marks matching keys as deterministic: numeric
  values must be equal in **both** directions, and string leaves
  (trace signatures, spec hashes) matching the pattern are compared
  verbatim — any drift fails the gate.  Signature leaves of two
  manifests whose ``signature_format`` differs are skipped with a note:
  the two formats hash the same trace differently.
* ``--tolerance`` is the default for keys no rule matches.

``--both-directions`` extends every rule (not just ``--exact``) to
also fail on improvements beyond tolerance — useful to force baseline
refreshes when results shift; ``--ignore`` excludes keys entirely.

Exit status: 0 when no regressions, 1 on regressions or exact-field
drift, 2 on usage or I/O errors.  Runs as a hard CI gate.
"""

from __future__ import annotations

import argparse
import fnmatch
import glob
import json
import os
import sys
from dataclasses import dataclass
from typing import Iterator, Optional, Union


@dataclass(frozen=True)
class Delta:
    """One leaf that differs between baseline and current."""

    manifest: str
    key: str            # dotted path inside results
    baseline: Union[float, str]
    current: Union[float, str]

    @property
    def relative(self) -> Optional[float]:
        if isinstance(self.baseline, str) or isinstance(self.current, str):
            return None
        if self.baseline == 0:
            return float("inf") if self.current != 0 else 0.0
        return (self.current - self.baseline) / abs(self.baseline)

    def row(self) -> str:
        rel = self.relative
        if rel is None:
            return (
                f"{self.manifest}:{self.key}: exact field changed: "
                f"{self.baseline!r} -> {self.current!r}"
            )
        arrow = "worse" if rel > 0 else "better"
        return (
            f"{self.manifest}:{self.key}: {self.baseline:g} -> "
            f"{self.current:g} ({rel:+.1%} {arrow})"
        )


def numeric_leaves(tree: object, prefix: str = "") -> Iterator[tuple[str, float]]:
    """Yield ``(dotted.path, value)`` for every numeric leaf."""
    if isinstance(tree, bool):
        return
    if isinstance(tree, (int, float)):
        yield prefix, float(tree)
    elif isinstance(tree, dict):
        for key in sorted(tree):
            child = f"{prefix}.{key}" if prefix else str(key)
            yield from numeric_leaves(tree[key], child)
    elif isinstance(tree, (list, tuple)):
        for i, item in enumerate(tree):
            yield from numeric_leaves(item, f"{prefix}[{i}]")


def string_leaves(tree: object, prefix: str = "") -> Iterator[tuple[str, str]]:
    """Yield ``(dotted.path, value)`` for every string leaf."""
    if isinstance(tree, str):
        yield prefix, tree
    elif isinstance(tree, dict):
        for key in sorted(tree):
            child = f"{prefix}.{key}" if prefix else str(key)
            yield from string_leaves(tree[key], child)
    elif isinstance(tree, (list, tuple)):
        for i, item in enumerate(tree):
            yield from string_leaves(item, f"{prefix}[{i}]")


def load_results(path: str) -> tuple[dict, int]:
    """A manifest's ``results`` and its trace-signature format (a
    manifest without ``signature_format`` predates format 2)."""
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except ValueError as exc:     # not JSON, not UTF-8
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "results" not in doc:
        raise ValueError(f"{path}: not a run manifest (no 'results')")
    return doc["results"], doc.get("signature_format", 1)


def manifest_set(path: str) -> dict[str, str]:
    """Manifest name -> file path, for a file or a directory."""
    if os.path.isdir(path):
        return {
            os.path.basename(p): p
            for p in sorted(glob.glob(os.path.join(path, "BENCH_*.json")))
        }
    return {os.path.basename(path): path}


def parse_rule(text: str) -> tuple[str, float]:
    """``'PATTERN=TOL'`` -> ``(pattern, tolerance)``."""
    pattern, sep, tol = text.rpartition("=")
    if not sep or not pattern:
        raise ValueError(f"rule {text!r} is not of the form PATTERN=TOL")
    try:
        value = float(tol)
    except ValueError:
        raise ValueError(f"rule {text!r}: tolerance {tol!r} is not a number")
    if value < 0:
        raise ValueError(f"rule {text!r}: tolerance must be >= 0")
    return pattern, value


def compare(
    baseline: str,
    current: str,
    tolerance: float,
    ignore: Optional[list[str]] = None,
    rules: Optional[list[tuple[str, float]]] = None,
    exact: Optional[list[str]] = None,
    both_directions: bool = False,
) -> tuple[list[Delta], list[str]]:
    """Returns (regressions, notes).  Raises on I/O or format errors."""
    ignore = ignore or []
    rules = rules or []
    exact = exact or []
    base_set = manifest_set(baseline)
    cur_set = manifest_set(current)

    def skipped(key: str) -> bool:
        return any(fnmatch.fnmatch(key, pattern) for pattern in ignore)

    def is_exact(key: str) -> bool:
        return any(fnmatch.fnmatch(key, pattern) for pattern in exact)

    def tolerance_for(key: str) -> float:
        for pattern, tol in rules:
            if fnmatch.fnmatch(key, pattern):
                return tol
        return tolerance

    regressions: list[Delta] = []
    notes: list[str] = []

    for name in sorted(base_set.keys() - cur_set.keys()):
        notes.append(f"{name}: present in baseline only (skipped)")
    for name in sorted(cur_set.keys() - base_set.keys()):
        notes.append(f"{name}: new manifest, no baseline (skipped)")

    for name in sorted(base_set.keys() & cur_set.keys()):
        base_tree, base_format = load_results(base_set[name])
        cur_tree, cur_format = load_results(cur_set[name])
        base_values = dict(numeric_leaves(base_tree))
        cur_values = dict(numeric_leaves(cur_tree))
        for key in sorted(base_values.keys() - cur_values.keys()):
            notes.append(f"{name}:{key}: dropped from current results")
        for key in sorted(cur_values.keys() - base_values.keys()):
            notes.append(f"{name}:{key}: new result, no baseline")
        compared = 0
        for key in sorted(base_values.keys() & cur_values.keys()):
            if skipped(key):
                continue
            compared += 1
            delta = Delta(name, key, base_values[key], cur_values[key])
            rel = delta.relative
            assert rel is not None
            if is_exact(key):
                if rel != 0:
                    regressions.append(delta)
                continue
            tol = tolerance_for(key)
            if rel > tol or (both_directions and rel < -tol):
                regressions.append(delta)
        # Deterministic string leaves (trace signatures, hashes):
        # compared verbatim when an --exact pattern selects them.  Two
        # trace-signature formats hash the same trace differently, so
        # across formats the signature leaves are not compared.
        base_strings = dict(string_leaves(base_tree))
        cur_strings = dict(string_leaves(cur_tree))
        unsigned = 0
        for key in sorted(base_strings.keys() & cur_strings.keys()):
            if skipped(key) or not is_exact(key):
                continue
            if base_format != cur_format and fnmatch.fnmatch(key, "*signature*"):
                unsigned += 1
                continue
            compared += 1
            if base_strings[key] != cur_strings[key]:
                regressions.append(
                    Delta(name, key, base_strings[key], cur_strings[key])
                )
        if unsigned:
            notes.append(
                f"{name}: trace-signature formats {base_format} and "
                f"{cur_format} differ; {unsigned} signature leaf(s) not compared"
            )
        notes.append(f"{name}: compared {compared} value(s)")
    return regressions, notes


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two BENCH_*.json manifests (or directories)."
    )
    parser.add_argument("baseline", help="baseline manifest file or directory")
    parser.add_argument("current", help="current manifest file or directory")
    parser.add_argument(
        "--tolerance", type=float, default=0.10,
        help="default relative growth allowed before a value counts as "
        "a regression (default 0.10 = 10%%)",
    )
    parser.add_argument(
        "--rule", action="append", default=[], metavar="PATTERN=TOL",
        help="per-metric tolerance for keys matching the fnmatch "
        "pattern, e.g. '*_s=0.50' for wall-clock seconds (repeatable; "
        "first match wins)",
    )
    parser.add_argument(
        "--exact", action="append", default=[], metavar="PATTERN",
        help="keys matching this pattern are deterministic: numeric "
        "values must match exactly in both directions, string leaves "
        "(signatures, hashes) verbatim (repeatable)",
    )
    parser.add_argument(
        "--ignore", action="append", default=[], metavar="PATTERN",
        help="skip result keys matching this fnmatch pattern entirely "
        "(repeatable)",
    )
    parser.add_argument(
        "--both-directions", action="store_true",
        help="also fail on improvements beyond tolerance",
    )
    args = parser.parse_args(argv)

    try:
        rules = [parse_rule(text) for text in args.rule]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        regressions, notes = compare(
            args.baseline, args.current, args.tolerance,
            ignore=args.ignore, rules=rules, exact=args.exact,
            both_directions=args.both_directions,
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for note in notes:
        print(note)
    if regressions:
        print(f"\n{len(regressions)} regression(s):")
        for delta in regressions:
            print(f"  {delta.row()}")
        return 1
    print("\nno regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
