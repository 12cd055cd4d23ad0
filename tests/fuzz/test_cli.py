"""The ``fuzz`` CLI: run gates, replay exit-code inversion, shrink."""

import json
import pathlib

import pytest

from repro.harness.cli import main

CORPUS_DIR = str(
    pathlib.Path(__file__).resolve().parent / "corpus"
)


def _run_args(tmp_path, *extra):
    return [
        "fuzz", "run",
        "--name", "cli", "--seed", "3", "--budget", "6", "--shards", "2",
        "--cache-dir", str(tmp_path / "cache"),
        "--out-dir", str(tmp_path),
        "--no-shrink",
        *extra,
    ]


def test_fuzz_run_writes_manifest(tmp_path, capsys):
    rc = main(_run_args(tmp_path))
    out = capsys.readouterr().out
    assert rc == 0
    assert "signature " in out
    manifest = tmp_path / "BENCH_fuzz_cli.json"
    assert manifest.exists()
    doc = json.loads(manifest.read_text())
    assert doc["params"]["budget"] == 6


def test_fuzz_run_flags_override_every_spec_file_field(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "file", "seed": 3, "budget": 6, "shards": 2}))
    rc = main([
        "fuzz", "run", str(spec), "--kinds", "plan", "--name", "flagged",
        "--budget", "4", "--no-shrink",
        "--cache-dir", str(tmp_path / "cache"), "--out-dir", str(tmp_path),
    ])
    assert rc == 0, capsys.readouterr()
    doc = json.loads((tmp_path / "BENCH_fuzz_flagged.json").read_text())
    assert doc["params"]["kinds"] == ["plan"]
    assert (doc["params"]["seed"], doc["params"]["budget"]) == (3, 4)
    assert {f["key"][0] for f in doc["results"]["findings"]} <= {"plan"}


def test_fuzz_run_rejects_unknown_kinds_flag(tmp_path, capsys):
    rc = main(_run_args(tmp_path, "--kinds", "plan,nope"))
    assert rc == 1
    assert "unknown fuzz kinds ['nope']" in capsys.readouterr().err


def test_fuzz_run_emit_corpus_without_corpus_is_rejected_up_front(
    tmp_path, capsys
):
    rc = main([
        "fuzz", "run", "--name", "cli", "--budget", "6",
        "--cache-dir", str(tmp_path / "cache"), "--out-dir", str(tmp_path),
        "--emit-corpus",
    ])
    captured = capsys.readouterr()
    assert rc == 2
    assert "--emit-corpus requires --corpus" in captured.err
    # Rejected before the campaign ran: nothing was announced or written.
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


def test_fuzz_run_help_lists_the_lane_table(capsys):
    with pytest.raises(SystemExit):
        main(["fuzz", "run", "--help"])
    assert "(plan,chaos,serve,divergence,ops,compete)" in "".join(
        capsys.readouterr().out.split()
    )


def test_fuzz_run_fail_on_new_against_empty_corpus(tmp_path, capsys):
    empty = tmp_path / "corpus"
    empty.mkdir()
    rc = main(_run_args(tmp_path, "--corpus", str(empty), "--fail-on-new"))
    out = capsys.readouterr().out
    if "finding [NEW]" in out:
        assert rc == 1
        assert "new finding key(s) not in corpus" in out
    else:  # campaign found nothing at this tiny budget: gate passes
        assert rc == 0


def test_fuzz_run_emit_corpus_then_gate_passes(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    # Emission requires shrinking (the corpus holds minimal repros).
    rc = main(
        [
            "fuzz", "run",
            "--name", "cli", "--seed", "3", "--budget", "6", "--shards", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--out-dir", str(tmp_path),
            "--corpus", str(corpus), "--emit-corpus",
        ]
    )
    assert rc == 0
    capsys.readouterr()
    # Second run against the emitted corpus: every key is now known.
    rc = main(
        [
            "fuzz", "run",
            "--name", "cli", "--seed", "3", "--budget", "6", "--shards", "2",
            "--cache-dir", str(tmp_path / "cache"), "--resume",
            "--out-dir", str(tmp_path), "--no-shrink",
            "--corpus", str(corpus), "--fail-on-new",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "finding [NEW]" not in out


def test_fuzz_replay_reproduced_exits_one(capsys):
    from repro.fuzz.corpus import corpus_files

    cases = corpus_files(CORPUS_DIR)
    assert cases
    rc = main(["fuzz", "replay", cases[0]])
    out = capsys.readouterr().out
    assert rc == 1
    assert "REPRODUCED" in out


def test_fuzz_replay_fixed_exits_zero(tmp_path, capsys):
    from repro.fuzz.corpus import corpus_files, load_corpus_file

    doc = load_corpus_file(corpus_files(CORPUS_DIR)[0])
    doc["expect"]["kinds"] = ["plan:never-this-kind"]
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps(doc))
    rc = main(["fuzz", "replay", str(stale)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fixed" in out


def test_fuzz_replay_invalid_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["fuzz", "replay", str(bad)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_fuzz_shrink_command_is_idempotent_on_minimal_case(tmp_path, capsys):
    from repro.fuzz.corpus import corpus_files, load_corpus_file

    source = corpus_files(CORPUS_DIR)[0]
    target = tmp_path / "case.json"
    target.write_text(json.dumps(load_corpus_file(source)))
    rc = main(["fuzz", "shrink", str(target), "--out", str(tmp_path / "o.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "measure" in out


@pytest.mark.parametrize(
    "edit, complaint",
    [
        (lambda doc: doc.update(kind="nope"), "unknown fuzz kinds ['nope']"),
        (lambda doc: doc["expect"].update(kinds="plan:x"), "'kinds' is not a list"),
    ],
    ids=["foreign-kind", "string-kinds"],
)
@pytest.mark.parametrize("command", ["replay", "shrink"])
def test_fuzz_replay_and_shrink_reject_invalid_corpus_docs(
    command, edit, complaint, tmp_path, capsys
):
    from repro.fuzz.corpus import corpus_files, load_corpus_file

    doc = load_corpus_file(corpus_files(CORPUS_DIR)[0])
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = main(["fuzz", command, str(bad)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and complaint in err
