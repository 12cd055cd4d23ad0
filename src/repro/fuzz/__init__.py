"""repro.fuzz — coverage-guided scenario fuzzing with shrinking.

Each fuzzed surface is one :class:`~repro.fuzz.lanes.FuzzLane` record
(:mod:`repro.fuzz.lanes`): a seeded generator of update plans, fault
campaigns, serve specs or operations sessions, the mutations that
evolve retained cases, the shrink candidates, and an oracle that
classifies a case as pass / violation / divergence / crash against the
static verifier, short simulations and cross-system checks.  The
generic layers drive the lanes: :mod:`repro.fuzz.gen` generates and
mutates, :mod:`repro.fuzz.oracles` classifies with crash containment,
coverage signals (:mod:`repro.fuzz.coverage`) drive corpus retention,
failing cases are delta-debugged to minimal repros
(:mod:`repro.fuzz.shrink`) and committed as self-contained JSON
documents (:mod:`repro.fuzz.corpus`) replayed forever by pytest.
Campaigns (:mod:`repro.fuzz.campaign`) shard through the sweep fleet.
"""

from repro.fuzz.campaign import (
    CrashRecord,
    FuzzCampaignResult,
    FuzzSpec,
    FuzzSpecError,
    load_fuzz_spec,
    load_fuzz_spec_file,
    run_fuzz_campaign,
    run_fuzz_shard,
    split_budget,
    write_fuzz_manifest,
)
from repro.fuzz.corpus import (
    corpus_doc,
    corpus_files,
    known_keys,
    load_corpus_file,
    replay_doc,
    replay_file,
    write_corpus_case,
)
from repro.fuzz.coverage import CoverageMap
from repro.fuzz.gen import FUZZ_KINDS, FuzzCase, generate_case, mutate_case
from repro.fuzz.lanes import LANE_TABLE, FuzzLane, resolve_lane
from repro.fuzz.oracles import (
    OUTCOMES,
    OracleVerdict,
    classify,
    evaluate_case,
    failure_key,
)
from repro.fuzz.shrink import shrink_case, shrink_measure

__all__ = [
    "CrashRecord",
    "CoverageMap",
    "FUZZ_KINDS",
    "FuzzCampaignResult",
    "FuzzCase",
    "FuzzLane",
    "FuzzSpec",
    "FuzzSpecError",
    "LANE_TABLE",
    "OUTCOMES",
    "OracleVerdict",
    "classify",
    "corpus_doc",
    "corpus_files",
    "evaluate_case",
    "failure_key",
    "generate_case",
    "known_keys",
    "load_corpus_file",
    "load_fuzz_spec",
    "load_fuzz_spec_file",
    "mutate_case",
    "replay_doc",
    "replay_file",
    "resolve_lane",
    "run_fuzz_campaign",
    "run_fuzz_shard",
    "shrink_case",
    "shrink_measure",
    "split_budget",
    "write_corpus_case",
    "write_fuzz_manifest",
]
