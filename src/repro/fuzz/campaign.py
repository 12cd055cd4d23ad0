"""The ``FuzzCampaign`` runner, sharded through the sweep executor.

A campaign is described by a :class:`FuzzSpec` (one JSON document:
seed, case budget, shard count, enabled kinds).  The budget is split
deterministically across shards; each shard runs
:func:`run_fuzz_shard` — generate or mutate, classify, retain on new
coverage — through the PR 4 fleet machinery (``repro fuzz run
--workers/--resume``), so fixed ``(seed, budget)`` campaigns produce
byte-identical ``BENCH_fuzz_*`` manifests no matter how many workers
ran them or how many resume rounds it took.

Crash containment: generator and oracle exceptions become structured
:class:`CrashRecord` documents (input seed + stage + traceback tail —
the same idiom as the sweep's ``ShardFailure``) and the campaign
continues; a campaign only aborts if the fleet itself does.

After the fleet merges, findings are deduplicated by failure key and
auto-shrunk (:mod:`repro.fuzz.shrink`) into corpus-ready documents.
"""

from __future__ import annotations

import dataclasses
import traceback
from dataclasses import dataclass
from typing import Any, Optional

from repro.fuzz.corpus import corpus_doc
from repro.fuzz.coverage import CoverageMap
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


@dataclass(frozen=True)
class CrashRecord:
    """One contained generator/oracle exception (the ``ShardFailure``
    idiom applied to individual fuzz cases)."""

    seed: int
    case_index: int
    stage: str                  # generate | oracle
    error_type: str
    message: str
    traceback_tail: str
    kind: str = ""              # case kind, when known

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def crash_record(
    seed: int, case_index: int, stage: str, exc: BaseException, kind: str = ""
) -> CrashRecord:
    tb = "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )
    return CrashRecord(
        seed=seed,
        case_index=case_index,
        stage=stage,
        error_type=type(exc).__name__,
        message=str(exc),
        traceback_tail=tb[-2000:],
        kind=kind,
    )


# -- the per-shard campaign body ---------------------------------------------


def run_fuzz_shard(
    fuzz: dict, seed: int, shard_index: int, budget: int
) -> dict:
    """One shard's slice of a campaign: ``budget`` cases from the
    shard's derived seed.  JSON-safe, deterministic results only."""
    spec = load_fuzz_spec(fuzz)
    coverage = CoverageMap()
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
            crashes.append(crash_record(seed, index, "generate", exc).to_dict())
            outcomes["crash"] += 1
            continue

        verdict = classify(case)  # oracle crashes contained inside
        outcomes[verdict.outcome] += 1
        if coverage.observe(verdict.coverage):
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
                crashes.append(
                    CrashRecord(
                        seed=seed,
                        case_index=index,
                        stage="oracle",
                        error_type=verdict.kinds[0] if verdict.kinds else "Exception",
                        message=str(verdict.detail.get("message", "")),
                        traceback_tail=str(verdict.detail.get("traceback_tail", "")),
                        kind=case.kind,
                    ).to_dict()
                )

    return {
        "fuzz": spec.name,
        "shard_index": shard_index,
        "budget": budget,
        "outcomes": outcomes,
        "coverage": coverage.keys(),
        "corpus_retained": len(corpus),
        "findings": findings,
        "crashes": crashes,
    }


# -- the fleet-level campaign ------------------------------------------------


@dataclass
class FuzzCampaignResult:
    """Everything one campaign produced, post-merge."""

    spec: FuzzSpec
    spec_hash: str
    signature: str
    shards_total: int
    shards_failed: int
    shard_failures: list[dict]
    outcomes: dict[str, int]
    coverage: list[str]
    findings: list[dict]        # deduped by key, sorted by key
    shrunk: list[dict]          # corpus-ready documents
    crashes: list[dict]
    cases: int = 0

    @property
    def ok(self) -> bool:
        return not self.shards_failed

    def finding_keys(self) -> list[tuple[str, ...]]:
        return [tuple(str(k) for k in f["key"]) for f in self.findings]

    def to_results(self) -> dict:
        return {
            "spec_hash": self.spec_hash,
            "signature": self.signature,
            "shards_total": self.shards_total,
            "shards_failed": self.shards_failed,
            "failures": self.shard_failures,
            "cases": self.cases,
            "outcomes": dict(sorted(self.outcomes.items())),
            "coverage_count": len(self.coverage),
            "coverage": list(self.coverage),
            "findings": self.findings,
            "shrunk": self.shrunk,
            "crashes": self.crashes,
        }


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


def run_fuzz_campaign(
    spec: FuzzSpec,
    workers: int = 1,
    cache_dir: Optional[str] = None,
    resume: bool = False,
    shrink_findings: Optional[bool] = None,
) -> FuzzCampaignResult:
    """Run (or resume) one campaign through the sweep executor."""
    from repro.sweep.executor import run_sweep
    from repro.sweep.merge import build_sweep_results

    sweep = fuzz_sweep_spec(spec)
    run = run_sweep(sweep, workers=workers, cache_dir=cache_dir, resume=resume)
    results = build_sweep_results(
        sweep, run.shard_docs, run.failures, run.shards_total
    )
    return merge_fuzz_campaign(spec, results, shrink_findings)


def merge_fuzz_campaign(
    spec: FuzzSpec, fleet: dict, shrink_findings: Optional[bool] = None
) -> FuzzCampaignResult:
    """Merge a campaign fleet's results tree
    (:func:`repro.sweep.merge.build_sweep_results`): dedupe findings by
    failure key and shrink them into corpus-ready documents."""
    ordered = fleet["shards"]

    outcomes: dict[str, int] = {outcome: 0 for outcome in OUTCOMES}
    coverage = CoverageMap()
    crashes: list[dict] = []
    raw_findings: list[dict] = []
    cases = 0
    for doc in ordered:
        results = doc["results"]
        cases += int(results.get("budget", 0))
        for outcome, count in (results.get("outcomes") or {}).items():
            outcomes[outcome] = outcomes.get(outcome, 0) + int(count)
        coverage.observe(results.get("coverage") or [])
        crashes.extend(results.get("crashes") or [])
        raw_findings.extend(results.get("findings") or [])

    # Dedupe by failure key: first occurrence in (shard, case) order
    # wins; the final list is sorted by key so it is independent of
    # shard completion order.
    raw_findings.sort(
        key=lambda f: (int(f.get("shard_index", 0)), int(f.get("case_index", 0)))
    )
    by_key: dict[tuple[str, ...], dict] = {}
    for finding in raw_findings:
        key = tuple(str(k) for k in finding["key"])
        if key not in by_key:
            by_key[key] = finding
    findings = [by_key[key] for key in sorted(by_key)]

    do_shrink = spec.shrink if shrink_findings is None else shrink_findings
    shrunk: list[dict] = []
    if do_shrink:
        for finding in findings[: spec.max_shrunk]:
            shrunk.append(shrink_finding(spec, finding))

    return FuzzCampaignResult(
        spec=spec,
        spec_hash=fleet["spec_hash"],
        signature=fleet["signature"],
        shards_total=fleet["shards_total"],
        shards_failed=fleet["shards_failed"],
        shard_failures=fleet["failures"],
        outcomes=outcomes,
        coverage=coverage.keys(),
        findings=findings,
        shrunk=shrunk,
        crashes=crashes,
        cases=cases,
    )


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
    doc = corpus_doc(
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
    return doc


def write_fuzz_manifest(
    result: FuzzCampaignResult, out_dir: Optional[str] = None
) -> str:
    """Write ``BENCH_fuzz_<name>.json`` and return its path.

    Everything under ``results`` is deterministic for a fixed
    ``(seed, budget)``, so ``bench_compare --exact`` across worker
    counts is a hard byte-identity gate.
    """
    from repro.obs.manifest import write_manifest

    return write_manifest(
        f"fuzz_{result.spec.name}",
        params=result.spec.to_dict(),
        results=result.to_results(),
        seed=result.spec.seed,
        out_dir=out_dir,
        merge=False,
    )
