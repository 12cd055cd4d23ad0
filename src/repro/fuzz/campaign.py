"""Fuzz campaigns: their spec, their per-shard body and their merge.

A campaign is described by a :class:`FuzzSpec` (one JSON document:
seed, case budget, shard count, enabled kinds).  :func:`fuzz_sweep_spec`
turns it into a ``fuzz``-kind sweep whose shards split the budget
deterministically; each shard runs :func:`run_fuzz_shard` — generate
or mutate, classify, retain on new coverage.  ``repro fuzz run`` runs
that sweep through the one fleet front end
(:func:`repro.sweep.cli.run_fleet`, ``--workers/--resume``) and hands
its results tree to :func:`merge_fuzz_campaign`, so fixed
``(seed, budget)`` campaigns produce byte-identical ``BENCH_fuzz_*``
manifests no matter how many workers ran them or how many resume
rounds it took.

Crash containment: generator and oracle exceptions become structured
crash records (input seed + stage + traceback tail — the same idiom as
the sweep's ``ShardFailure``) and the campaign continues; a campaign
only aborts if the fleet itself does.

The fleet folds the shard documents once
(:func:`repro.fuzz.sweep_kind.aggregate_fuzz`: findings deduplicated by
failure key); the campaign's results tree is that fold plus the fleet
stamps and the findings auto-shrunk (:mod:`repro.fuzz.shrink`) into
corpus-ready documents.
"""

from __future__ import annotations

import dataclasses
import traceback
from dataclasses import dataclass
from typing import Any, Optional

from repro.fuzz.corpus import corpus_doc
from repro.fuzz.gen import (
    FUZZ_KINDS,
    FuzzCase,
    case_from_dict,
    case_rng,
    generate_case,
    mutate_case,
)
from repro.fuzz.lanes import require_lanes
from repro.fuzz.oracles import OUTCOMES, classify, failure_key, verdict_from_dict
from repro.loading import dataclass_from_object, read_json_object


class FuzzSpecError(ValueError):
    """Raised for malformed fuzz campaign specifications."""


@dataclass(frozen=True)
class FuzzSpec:
    """A validated fuzz campaign description."""

    name: str
    seed: int = 0
    budget: int = 32            # total cases across every shard
    shards: int = 1
    kinds: tuple[str, ...] = FUZZ_KINDS
    mutation_prob: float = 0.5  # chance a case mutates the corpus
    shrink: bool = True
    max_shrunk: int = 16        # findings to shrink per campaign
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise FuzzSpecError("fuzz spec needs a non-empty 'name'")
        if self.budget < 1:
            raise FuzzSpecError("fuzz spec needs budget >= 1")
        if self.shards < 1:
            raise FuzzSpecError("fuzz spec needs shards >= 1")
        if self.shards > self.budget:
            raise FuzzSpecError("fuzz spec needs shards <= budget")
        if not self.kinds:
            raise FuzzSpecError("fuzz spec has an empty kinds axis")
        require_lanes(self.kinds, FuzzSpecError)
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise FuzzSpecError("mutation_prob must be in [0, 1]")
        if self.max_shrunk < 0:
            raise FuzzSpecError("max_shrunk must be >= 0")

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "kinds": list(self.kinds)}


def load_fuzz_spec(data: dict) -> FuzzSpec:
    return dataclass_from_object(
        FuzzSpec, data, "fuzz spec", FuzzSpecError,
        kinds=lambda kinds: tuple(str(k) for k in kinds),
    )


def load_fuzz_spec_file(path: str) -> FuzzSpec:
    return load_fuzz_spec(read_json_object(path, "fuzz spec", FuzzSpecError))


def split_budget(budget: int, shards: int) -> list[int]:
    """Deterministic budget split: remainder goes to the early shards."""
    base, extra = divmod(budget, shards)
    return [base + (1 if index < extra else 0) for index in range(shards)]


# -- crash containment -------------------------------------------------------


def crash_record(
    seed: int, case_index: int, stage: str, kind: str,
    error_type: str, message: str, traceback_tail: str,
) -> dict:
    """One contained generator (``kind`` empty) or oracle exception
    (the ``ShardFailure`` idiom applied to individual fuzz cases)."""
    return {
        "seed": seed,
        "case_index": case_index,
        "stage": stage,
        "error_type": error_type,
        "message": message,
        "traceback_tail": traceback_tail,
        "kind": kind,
    }


# -- the per-shard campaign body ---------------------------------------------


def run_fuzz_shard(
    fuzz: dict, seed: int, shard_index: int, budget: int
) -> dict:
    """One shard's slice of a campaign: ``budget`` cases from the
    shard's derived seed.  JSON-safe, deterministic results only."""
    spec = load_fuzz_spec(fuzz)
    seen: set[str] = set()
    corpus: list[FuzzCase] = []
    findings: list[dict] = []
    crashes: list[dict] = []
    outcomes: dict[str, int] = {outcome: 0 for outcome in OUTCOMES}

    for index in range(budget):
        # Stream 1 is the campaign driver's (mutate-or-generate choice,
        # corpus picks); stream 0 belongs to generate_case.
        driver = case_rng(seed, index, stream=1)
        try:
            if corpus and float(driver.random()) < spec.mutation_prob:
                base = corpus[int(driver.integers(0, len(corpus)))]
                donor = corpus[int(driver.integers(0, len(corpus)))]
                case = mutate_case(base, donor, driver, index)
            else:
                case = generate_case(seed, index, spec.kinds)
        except Exception as exc:
            crashes.append(crash_record(
                seed, index, "generate", "", type(exc).__name__, str(exc),
                traceback.format_exc()[-2000:],
            ))
            outcomes["crash"] += 1
            continue

        verdict = classify(case)  # oracle crashes contained inside
        outcomes[verdict.outcome] += 1
        if not seen.issuperset(verdict.coverage):
            seen.update(verdict.coverage)
            corpus.append(case)
        if verdict.outcome != "pass":
            findings.append(
                {
                    "key": list(failure_key(case.kind, verdict)),
                    "case": case.to_dict(),
                    "verdict": verdict.to_dict(),
                    "shard_index": shard_index,
                    "case_index": index,
                }
            )
            if verdict.outcome == "crash":
                crashes.append(crash_record(
                    seed, index, "oracle", case.kind,
                    verdict.kinds[0] if verdict.kinds else "Exception",
                    str(verdict.detail.get("message", "")),
                    str(verdict.detail.get("traceback_tail", "")),
                ))

    return {
        "fuzz": spec.name,
        "shard_index": shard_index,
        "budget": budget,
        "outcomes": outcomes,
        "coverage": sorted(seen),
        "corpus_retained": len(corpus),
        "findings": findings,
        "crashes": crashes,
    }


# -- the fleet-level campaign ------------------------------------------------


def fuzz_sweep_spec(spec: FuzzSpec) -> Any:
    """The campaign as a sweep (kind ``fuzz``): ``spec.shards`` shards
    splitting the case budget."""
    from repro.sweep.spec import load_sweep_spec

    return load_sweep_spec(
        {
            "name": spec.name,
            "kind": "fuzz",
            "seed": spec.seed,
            "runs": spec.shards,
            "fuzz": spec.to_dict(),
        }
    )


def merge_fuzz_campaign(
    spec: FuzzSpec, fleet: dict, shrink_findings: Optional[bool] = None
) -> dict:
    """The ``BENCH_fuzz_*`` results tree of a campaign fleet's results
    tree (:func:`repro.sweep.merge.build_sweep_results`): its stamps,
    its fold (:func:`repro.fuzz.sweep_kind.aggregate_fuzz`) and the
    first ``spec.max_shrunk`` findings shrunk into corpus-ready
    documents."""
    aggregates = fleet["aggregates"]
    do_shrink = spec.shrink if shrink_findings is None else shrink_findings
    findings = aggregates["findings"][: spec.max_shrunk] if do_shrink else []
    return {
        "spec_hash": fleet["spec_hash"],
        "signature": fleet["signature"],
        "shards_total": fleet["shards_total"],
        "shards_failed": fleet["shards_failed"],
        "failures": fleet["failures"],
        **aggregates,
        "shrunk": [shrink_finding(spec, finding) for finding in findings],
    }


def shrink_finding(spec: FuzzSpec, finding: dict) -> dict:
    """Shrink one merged finding into a corpus-ready document."""
    from repro.fuzz.shrink import shrink_case

    case = case_from_dict(finding["case"])
    minimal = shrink_case(case)
    verdict = (
        classify(minimal)
        if minimal is not case
        else verdict_from_dict(finding["verdict"])
    )
    return corpus_doc(
        minimal,
        verdict,
        found_by={
            "fuzz": spec.name,
            "seed": spec.seed,
            "shard_index": int(finding.get("shard_index", 0)),
            "case_index": int(finding.get("case_index", 0)),
            "original_name": str(finding["case"].get("name", "")),
        },
        description=(
            f"auto-shrunk from campaign {spec.name!r} "
            f"(seed {spec.seed}, budget {spec.budget})"
        ),
    )
