"""The fuzz-lane registry: a lane is one record, resolved lazily."""

import subprocess
import sys

import pytest

from repro.fuzz.campaign import FuzzSpecError, load_fuzz_spec
from repro.fuzz.corpus import load_corpus_file, replay_doc
from repro.fuzz.gen import (
    FUZZ_KINDS,
    FuzzCase,
    case_from_dict,
    case_rng,
    generate_case,
    mutate_case,
)
from repro.fuzz.lanes import LANE_TABLE, FuzzLane, resolve_lane
from repro.fuzz.oracles import classify, evaluate_case
from repro.fuzz.shrink import shrink_case
from repro.harness.cli import main
from repro.obs.manifest import load_manifest


@pytest.fixture
def toy_lane(monkeypatch):
    """One table line registers the lane defined in toy_lane.py."""
    monkeypatch.setitem(LANE_TABLE, "toy", "tests.fuzz.toy_lane:TOY")


def _run(tmp_path, tag, *extra):
    out_dir = tmp_path / f"out{tag}"
    rc = main([
        "fuzz", "run", "--name", "toys", "--kinds", "toy", "--seed", "4",
        "--budget", "40", "--shards", "4",
        "--cache-dir", str(tmp_path / f"cache{tag}"),
        "--out-dir", str(out_dir), *extra,
    ])
    return rc, load_manifest(str(out_dir / "BENCH_fuzz_toys.json"))["results"]


def test_toy_lane_runs_through_fuzz_run_at_any_worker_count(
    toy_lane, tmp_path, capsys
):
    signatures = []
    for workers in (1, 2):
        rc, results = _run(
            tmp_path, workers, "--workers", str(workers), "--no-shrink"
        )
        assert rc == 0, capsys.readouterr()
        assert results["cases"] == 40 and results["shards_failed"] == 0
        assert results["outcomes"]["crash"] == 0
        assert results["outcomes"]["violation"] >= 1
        assert [f["key"] for f in results["findings"]] == [
            ["toy", "violation", "toy", "toy:over-limit"]
        ]
        signatures.append(results["signature"])
    assert signatures[0] == signatures[1]


def test_toy_lane_finds_shrinks_and_round_trips_through_the_corpus(
    toy_lane, tmp_path, capsys
):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    rc, results = _run(tmp_path, "emit", "--corpus", str(corpus), "--emit-corpus")
    assert rc == 0, capsys.readouterr()
    (path,) = sorted(corpus.glob("toy-*.json"))
    doc = load_corpus_file(str(path))
    assert doc == results["shrunk"][0]
    # Minimal: a bag just over the limit that no drop or halving keeps
    # over it.
    numbers = doc["payload"]["numbers"]
    assert sum(numbers) > 20 and sum(numbers) - min(numbers) <= 20
    reproduced, verdict = replay_doc(doc)
    assert reproduced and verdict.kinds == ("toy:over-limit",)
    assert main(["fuzz", "replay", str(path)]) == 1
    # The emitted repro now covers the finding: the CI gate passes.
    rc, _ = _run(
        tmp_path, "emit", "--resume", "--no-shrink",
        "--corpus", str(corpus), "--fail-on-new",
    )
    assert rc == 0, capsys.readouterr()


def test_toy_lane_mutates_with_its_own_ops(toy_lane):
    base = generate_case(4, 0, ("toy",))
    donor = generate_case(4, 1, ("toy",))
    assert base.kind == donor.kind == "toy" and base.name == "toy[0]"
    names = set()
    for step in range(16):
        mutated = mutate_case(base, donor, case_rng(4, step, 1), step)
        assert mutated.kind == "toy" and mutated.payload != base.payload
        names.add(mutated.name.split("[")[0])
        alone = mutate_case(base, None, case_rng(4, step, 1), step)
        assert alone.name == f"toy~knob-perturb[{step}]"
    assert names == {"toy~knob-perturb", "toy~splice"}


def test_unregistered_lane_is_rejected_everywhere():
    known = r"unknown fuzz kinds \['toy'\]; known: \('plan', 'chaos', "
    case = FuzzCase(kind="toy", name="t", seed=0, payload={"numbers": [30]})
    with pytest.raises(FuzzSpecError, match=known):
        load_fuzz_spec({"name": "t", "kinds": ["plan", "toy"]})
    with pytest.raises(ValueError, match=known):
        case_from_dict(case.to_dict())
    with pytest.raises(ValueError, match=known):
        generate_case(0, 0, ("toy",))
    with pytest.raises(ValueError, match=known):
        mutate_case(case, None, case_rng(0, 0, 1), 0)
    with pytest.raises(ValueError, match=known):
        evaluate_case(case)
    with pytest.raises(ValueError, match=known):
        shrink_case(case)
    assert classify(case).outcome == "crash"


def test_every_in_tree_lane_resolves():
    assert tuple(LANE_TABLE) == FUZZ_KINDS == (
        "plan", "chaos", "serve", "divergence", "ops", "compete",
    )
    for name in LANE_TABLE:
        lane = resolve_lane(name)
        assert isinstance(lane, FuzzLane) and lane.name == name
        ops = [op for op, _, _ in lane.mutations]
        assert len(set(ops)) == len(ops)
        # mutate_case needs an op that is eligible without a donor.
        assert not lane.mutations[0][2]


def test_importing_the_fuzz_package_imports_no_lane():
    code = (
        "import sys, repro.fuzz, repro.fuzz.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith('repro.fuzz.lanes.')))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"

