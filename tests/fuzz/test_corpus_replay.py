"""The committed regression corpus replays forever.

Every JSON document under ``tests/fuzz/corpus/`` is a shrunk repro of
a finding some campaign made.  Green here means the oracles still
catch each adversarial input with the exact recorded classification
(outcome + oracle + violation kinds) — if an oracle regresses, the
corpus case that covered it fails.  To triage one case interactively::

    PYTHONPATH=src python -m repro.harness.cli fuzz replay tests/fuzz/corpus/<case>.json

(exit 1 = still reproduces, 0 = fixed; see docs/FUZZING.md).
"""

import pathlib

import pytest

from repro.fuzz.corpus import (
    corpus_files,
    expected_key,
    known_keys,
    load_corpus_file,
    replay_file,
    validate_corpus_doc,
)

CORPUS_DIR = str(pathlib.Path(__file__).resolve().parent / "corpus")
CASES = corpus_files(CORPUS_DIR)


def test_corpus_is_committed_and_diverse():
    assert len(CASES) >= 3, "the regression corpus must not be empty"
    kinds = {load_corpus_file(path)["kind"] for path in CASES}
    # The ISSUE's bar: at least three distinct adversarial finding
    # classes (e.g. a plan slot race, a fault-schedule violation and a
    # cross-system check) survive as committed repros.
    assert len(kinds) >= 3, kinds


def test_corpus_keys_are_unique():
    keys = [expected_key(load_corpus_file(path)) for path in CASES]
    assert len(keys) == len(set(keys))
    assert known_keys(CORPUS_DIR) == set(keys)


# Every checker a case builds (chaos, serve, ops, compete lanes) also
# runs the full-state reference checker and must agree with it.
@pytest.mark.usefixtures("shadow_checker")
@pytest.mark.parametrize(
    "path", CASES, ids=[pathlib.Path(p).stem for p in CASES]
)
def test_corpus_case_replays(path):
    doc = validate_corpus_doc(load_corpus_file(path))
    reproduced, verdict, _ = replay_file(path)
    assert reproduced, (
        f"{doc['name']}: expected {doc['expect']} but observed "
        f"{verdict.outcome}/{verdict.oracle} kinds={list(verdict.kinds)} — "
        f"either an oracle regressed or the underlying bug was fixed; "
        f"if fixed, delete this corpus case in the same change"
    )


def test_corpus_filenames_match_case_names():
    for path in CASES:
        doc = load_corpus_file(path)
        assert pathlib.Path(path).stem == doc["name"]
