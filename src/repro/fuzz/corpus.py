"""The committed regression corpus: self-contained JSON repros.

Every finding a campaign shrinks is written as one JSON document under
``tests/fuzz/corpus/`` that carries everything needed to re-run it
forever: the minimal payload, the expected classification, and the
provenance of the campaign that found it::

    {
      "schema": 1,
      "name": "plan-3f92c1a04b",
      "kind": "plan",
      "seed": 0,
      "payload": {...},
      "expect": {"outcome": "violation", "oracle": "static",
                 "kinds": ["interference:version-slot-race"]},
      "found_by": {"fuzz": "smoke", "seed": 0, "case_index": 12},
      "description": "..."
    }

Two replay modes share :func:`replay_doc`:

* the pytest harness (``tests/fuzz/test_corpus_replay.py``) asserts
  every committed case still **reproduces** its recorded verdict —
  green means the oracles still catch the adversarial input;
* ``repro fuzz replay <case.json>`` inverts the exit code (1 when the
  failure reproduces, 0 when it no longer does), so a shrunken repro
  doubles as a bisection probe while fixing the underlying issue.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
from typing import Optional

from repro.fuzz.gen import FuzzCase, case_from_dict
from repro.fuzz.lanes import require_lanes
from repro.fuzz.oracles import OracleVerdict, classify, failure_key
from repro.loading import (
    field_problems, read_json_object, require_object, write_json_atomic,
)

CORPUS_SCHEMA = 1
#: What a corpus case's ``expect`` object must name (any value type).
_EXPECT_FIELDS = dict.fromkeys(("outcome", "oracle", "kinds"), object)


def finding_name(key: tuple[str, ...]) -> str:
    """Stable corpus file stem for one failure key."""
    blob = json.dumps(list(key), separators=(",", ":"))
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:10]
    return f"{key[0]}-{digest}"


def corpus_doc(
    case: FuzzCase,
    verdict: OracleVerdict,
    found_by: Optional[dict] = None,
    description: str = "",
) -> dict:
    """The self-contained corpus document for one (case, verdict)."""
    key = failure_key(case.kind, verdict)
    return {
        "schema": CORPUS_SCHEMA,
        "name": finding_name(key),
        "kind": case.kind,
        "seed": case.seed,
        "payload": case.to_dict()["payload"],
        "expect": {
            "outcome": verdict.outcome,
            "oracle": verdict.oracle,
            "kinds": list(verdict.kinds),
        },
        "found_by": dict(found_by or {}),
        "description": description,
    }


def validate_corpus_doc(doc: dict) -> dict:
    problems = []
    require_object(doc, "corpus case", ValueError)
    if int(doc.get("schema", 0)) != CORPUS_SCHEMA:
        problems.append(f"unsupported schema {doc.get('schema')!r}")
    problems += field_problems(doc, {"kind": str, "payload": dict, "expect": dict})
    if not problems:
        try:
            require_lanes((doc["kind"],))
        except ValueError as exc:
            problems.append(str(exc))
        expect = doc["expect"]
        problems += (f"expect {p}" for p in field_problems(expect, _EXPECT_FIELDS))
        # A string here would be read one character per violation kind.
        if not isinstance(expect.get("kinds", []), list):
            problems.append("expect field 'kinds' is not a list")
    if problems:
        raise ValueError("invalid corpus case: " + "; ".join(problems))
    return doc


def write_corpus_case(path: str, doc: dict) -> str:
    validate_corpus_doc(doc)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    write_json_atomic(path, doc)
    return path


def load_corpus_file(path: str) -> dict:
    return validate_corpus_doc(read_json_object(path, "corpus case", ValueError))


def corpus_files(directory: str) -> list[str]:
    """Every corpus case file under ``directory``, sorted."""
    return sorted(glob.glob(os.path.join(directory, "*.json")))


def expected_key(doc: dict) -> tuple[str, ...]:
    expect = doc["expect"]
    return (
        (str(doc["kind"]), str(expect["outcome"]), str(expect["oracle"]))
        + tuple(str(k) for k in expect["kinds"])
    )


def known_keys(directory: str) -> set[tuple[str, ...]]:
    """Failure keys of every committed corpus case (for the zero-new
    -findings gate)."""
    keys: set[tuple[str, ...]] = set()
    for path in corpus_files(directory):
        keys.add(expected_key(load_corpus_file(path)))
    return keys


def case_from_doc(doc: dict) -> FuzzCase:
    """The case a corpus document carries (its other fields are the
    expectation and provenance)."""
    return case_from_dict(doc)


def replay_doc(doc: dict) -> tuple[bool, OracleVerdict]:
    """Re-run a corpus case verbatim.

    Returns ``(reproduced, verdict)`` where ``reproduced`` means the
    fresh classification matches the recorded expectation exactly
    (same outcome, oracle and violation kinds — everything here is
    deterministic, so exact equality is the right bar).
    """
    validate_corpus_doc(doc)
    case = case_from_doc(doc)
    verdict = classify(case)
    reproduced = failure_key(case.kind, verdict) == expected_key(doc)
    return reproduced, verdict


def replay_file(path: str) -> tuple[bool, OracleVerdict, dict]:
    doc = load_corpus_file(path)
    reproduced, verdict = replay_doc(doc)
    return reproduced, verdict, doc
