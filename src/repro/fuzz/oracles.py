"""The oracle layer: run one fuzz case through the platform's checks.

Each lane brings its own oracle — a stack of checks the repo already
trusts (the static verifier and interference analyzer, full seeded
simulations under the live checker, cross-system and cross-strategy
comparisons; see the lane modules under :mod:`repro.fuzz.lanes`).
This module owns what they have in common: the verdict record, the
failure key, the per-case global-state reset and crash containment.

Outcomes: ``pass`` (all checks hold), ``violation`` (an invariant was
tripped), ``divergence`` (two oracles disagree), ``crash`` (a
generator/oracle raised — contained by :func:`classify`, never
aborting a campaign).  Every verdict carries the coverage keys that
drive corpus retention (:mod:`repro.fuzz.coverage`).
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.fuzz.gen import FuzzCase
from repro.fuzz.lanes import resolve_lane
from repro.loading import plain

#: Classification outcomes, from best to worst.
OUTCOMES = ("pass", "violation", "divergence", "crash")
PASS, VIOLATION, DIVERGENCE, CRASH = OUTCOMES


@dataclass(frozen=True)
class OracleVerdict:
    """The classified outcome of one case evaluation."""

    outcome: str
    oracle: str
    kinds: tuple[str, ...] = ()
    coverage: tuple[str, ...] = ()
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return plain(self)


def verdict_from_dict(data: dict) -> OracleVerdict:
    return OracleVerdict(
        outcome=str(data["outcome"]),
        oracle=str(data["oracle"]),
        kinds=tuple(str(k) for k in data.get("kinds", ())),
        coverage=tuple(str(k) for k in data.get("coverage", ())),
        detail=dict(data.get("detail", {})),
    )


def comparison_verdict(
    oracle: str,
    prefix: str,
    mismatches: Sequence[str],
    violations: Sequence[str],
    coverage: Iterable[str],
    detail: dict,
) -> OracleVerdict:
    """The verdict of a lane that runs one workload several ways: a
    ``divergence`` naming the mismatches when the runs disagree, else a
    ``violation`` when any run tripped an invariant, else ``pass``."""
    keys = set(coverage)
    kinds = sorted(set(mismatches))
    if kinds:
        outcome = DIVERGENCE
        keys.update(f"{prefix}:{kind}" for kind in kinds)
    elif violations:
        outcome, kinds = VIOLATION, sorted(set(violations))
    else:
        outcome = PASS
        keys.add(f"{prefix}:agree")
    return OracleVerdict(outcome, oracle, tuple(kinds), tuple(sorted(keys)), detail)


def failure_key(case_kind: str, verdict: OracleVerdict) -> tuple[str, ...]:
    """The identity of a finding: what "the same bug again" means.

    Coarse on purpose — shrunk payloads of one root cause differ
    byte-wise across seeds, but their (case kind, outcome, oracle,
    violation kinds) fingerprint is stable.
    """
    return (case_kind, verdict.outcome, verdict.oracle) + tuple(verdict.kinds)


def classify(case: FuzzCase) -> OracleVerdict:
    """Evaluate with crash containment: an oracle exception becomes a
    structured ``crash`` verdict instead of aborting the campaign."""
    try:
        return evaluate_case(case)
    except Exception as exc:
        tb = traceback.format_exc()
        error = type(exc).__name__
        return OracleVerdict(
            outcome=CRASH,
            oracle="oracle",
            kinds=(error,),
            coverage=(f"crash:{case.kind}:{error}",),
            detail={"message": str(exc), "traceback_tail": tb[-2000:]},
        )


def evaluate_case(case: FuzzCase) -> OracleVerdict:
    """Run the oracle of the case's lane (may raise)."""
    lane = resolve_lane(case.kind)
    return lane.oracle(case.payload)
