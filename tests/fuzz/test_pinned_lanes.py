"""Fuzz-lane byte identity, pinned at the commit before the per-lane
function families of ``fuzz/{gen,oracles,shrink}.py`` were folded into
one ``FuzzLane`` record per lane.

``pinned_lanes.json`` holds, for campaign seed 11 (the smoke campaign's):

* ``generated`` — name and payload hash of ``generate_case`` indices
  0..95, sixteen per lane;
* ``mutated`` — a scripted chain of ``mutate_case`` steps per lane (each
  step mutates the previous step's output; donors cycle through a
  same-lane case, ``None``, a foreign-lane case and a second same-lane
  case), which must reach every (lane, op) pair;
* ``shrink_candidates`` — the ordered candidate payloads ``shrink_case``
  tries for every corpus case, every generated case and every mutated
  case, observed through a classifier that fails the original and
  passes every candidate (so no candidate is accepted and the whole
  list is walked);
* ``plan_verdicts`` — failure key, coverage and the real shrink
  trajectory of every ``plan`` case above (the static oracles are fast
  enough to run here; the simulating lanes' verdicts are pinned by the
  corpus replay and the smoke campaign's signature).

It uses the public API only and runs unchanged on both sides of the
refactor.  Regenerate only for a deliberate behaviour change::

    PYTHONPATH=src python tests/fuzz/test_pinned_lanes.py
"""

import hashlib
import json
import pathlib

import pytest

from repro.fuzz.corpus import case_from_doc, corpus_files, load_corpus_file
from repro.fuzz.gen import (
    FUZZ_KINDS,
    canonical_payload,
    case_rng,
    generate_case,
    mutate_case,
)
from repro.fuzz.oracles import OracleVerdict, classify, failure_key
from repro.fuzz.shrink import shrink_case

PINNED_PATH = pathlib.Path(__file__).with_name("pinned_lanes.json")
CORPUS_DIR = pathlib.Path(__file__).with_name("corpus")

SEED = 11
GENERATED = 96
CHAIN_STEPS = 40

#: Every (lane, mutation op) pair ``mutate_case`` can produce.
LANE_OPS = {
    "plan": {"knob-perturb", "plan-crossover"},
    "chaos": {"knob-perturb", "fault-insert", "splice"},
    "serve": {"knob-perturb", "fault-insert", "splice"},
    "divergence": {"knob-perturb"},
    "ops": {"knob-perturb", "fault-insert"},
    "compete": {"knob-perturb", "fault-insert", "splice"},
}


def _payload_hash(payload: dict) -> str:
    return hashlib.sha256(canonical_payload(payload).encode("utf-8")).hexdigest()


def _identity(case) -> dict:
    return {"name": case.name, "kind": case.kind, "payload": _payload_hash(case.payload)}


def _ordered_digest(hashes: list[str]) -> dict:
    return {
        "count": len(hashes),
        "digest": hashlib.sha256("\n".join(hashes).encode("utf-8")).hexdigest(),
    }


def generated_cases() -> list:
    return [generate_case(SEED, index) for index in range(GENERATED)]


def mutated_cases() -> list:
    """The scripted chains, lane by lane in ``FUZZ_KINDS`` order."""
    lanes = len(FUZZ_KINDS)
    out = []
    for lane_index, lane in enumerate(FUZZ_KINDS):
        current = generate_case(SEED, lane_index)
        assert current.kind == lane
        donors = (
            generate_case(SEED, lane_index + lanes),
            None,
            generate_case(SEED, (lane_index + 1) % lanes),
            generate_case(SEED, lane_index + 2 * lanes),
        )
        for step in range(CHAIN_STEPS):
            index = 1000 * (lane_index + 1) + step
            current = mutate_case(
                current, donors[step % len(donors)], case_rng(SEED, index, 1), index
            )
            out.append(current)
    return out


def corpus_cases() -> list:
    return [
        case_from_doc(load_corpus_file(path)) for path in corpus_files(str(CORPUS_DIR))
    ]


def shrink_candidates(case) -> dict:
    """Every candidate ``shrink_case`` evaluates for ``case``, in order."""
    seen: list[str] = []

    def recording(candidate) -> OracleVerdict:
        if candidate is case:
            return OracleVerdict(outcome="violation", oracle="pinned")
        seen.append(_payload_hash(candidate.payload))
        return OracleVerdict(outcome="pass", oracle="pinned")

    assert shrink_case(case, recording) is case
    return _ordered_digest(seen)


def plan_verdict(case) -> dict:
    verdict = classify(case)
    trajectory: list[str] = []
    minimal = shrink_case(
        case, classify, lambda step, _verdict: trajectory.append(_payload_hash(step.payload))
    )
    return {
        "key": list(failure_key(case.kind, verdict)),
        "coverage": list(verdict.coverage),
        "trajectory": _ordered_digest(trajectory),
        "minimal": _payload_hash(minimal.payload),
    }


def compute_all() -> dict:
    generated = generated_cases()
    mutated = mutated_cases()
    corpus = corpus_cases()
    labelled = (
        [(f"generated/{case.name}", case) for case in generated]
        + [(f"mutated/{case.name}", case) for case in mutated]
        + [(f"corpus/{case.name}", case) for case in corpus]
    )
    assert len(dict(labelled)) == len(labelled)
    return {
        "generated": [_identity(case) for case in generated],
        "mutated": [_identity(case) for case in mutated],
        "shrink_candidates": {
            label: shrink_candidates(case) for label, case in labelled
        },
        "plan_verdicts": {
            label: plan_verdict(case)
            for label, case in labelled if case.kind == "plan"
        },
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PINNED_PATH.read_text())


@pytest.fixture(scope="module")
def computed() -> dict:
    return json.loads(json.dumps(compute_all()))


def test_chains_reach_every_lane_op_pair():
    seen: dict[str, set[str]] = {lane: set() for lane in FUZZ_KINDS}
    cases = mutated_cases()
    for case in cases:
        seen[case.kind].add(case.name.split("~")[1].split("[")[0])
    assert seen == LANE_OPS
    assert len(cases) >= 60


def test_pinned_file_covers_every_lane(pinned):
    assert tuple(FUZZ_KINDS) == tuple(LANE_OPS)
    assert len(pinned["generated"]) == GENERATED
    assert {entry["kind"] for entry in pinned["generated"]} == set(FUZZ_KINDS)
    assert len(pinned["mutated"]) == CHAIN_STEPS * len(FUZZ_KINDS)
    assert sum(k.startswith("corpus/") for k in pinned["shrink_candidates"]) == 47


@pytest.mark.parametrize(
    "section", ["generated", "mutated", "shrink_candidates", "plan_verdicts"]
)
def test_section_is_byte_identical(section, pinned, computed):
    expected, actual = pinned[section], computed[section]
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected)
        differing = [key for key in expected if actual[key] != expected[key]]
    else:
        assert len(actual) == len(expected)
        differing = [
            want["name"] for want, got in zip(expected, actual) if want != got
        ]
    assert not differing


if __name__ == "__main__":
    PINNED_PATH.write_text(
        json.dumps(compute_all(), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {PINNED_PATH}")
