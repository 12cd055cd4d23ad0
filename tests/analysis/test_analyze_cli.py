"""The ``analyze`` CLI subcommands, driven through the real main()."""

import json
import os

import pytest

from repro.harness.cli import main

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")


def test_analyze_lint_default_paths_clean(capsys):
    assert main(["analyze", "lint"]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_analyze_lint_flags_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nt = time.time()\n")
    assert main(["analyze", "lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "wall-clock" in out
    assert "1 finding(s)" in out


def test_analyze_lint_select_rule(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nt = time.time()\nfor x in {1, 2}:\n    pass\n")
    assert main(["analyze", "lint", "--select", "set-iteration", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "set-iteration" in out
    assert "wall-clock" not in out


def test_analyze_lint_unknown_rule(capsys):
    assert main(["analyze", "lint", "--select", "nope", "x.py"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_analyze_lint_show_suppressed(tmp_path, capsys):
    source = "import time\nt = time.time()  # repro: ignore[wall-clock]\n"
    path = tmp_path / "ok.py"
    path.write_text(source)
    assert main(["analyze", "lint", "--show-suppressed", str(path)]) == 0
    out = capsys.readouterr().out
    assert "1 suppressed" in out
    assert "wall-clock" in out


def test_analyze_plan_quick(capsys):
    assert main(["analyze", "plan", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "fig1 single" in out
    assert "rejected" in out
    assert "counterexample path:" in out
    assert "no failure(s)" in out


def test_analyze_pipeline(capsys):
    assert main(["analyze", "pipeline"]) == 0
    out = capsys.readouterr().out
    assert "P4UpdateProgram" in out
    assert "0 finding(s)" in out


def test_analyze_requires_subcommand():
    with pytest.raises(SystemExit):
        main(["analyze"])


# -- structured output (--format json) ------------------------------------------


def test_analyze_lint_json_out_file(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nt = time.time()\n")
    out_path = tmp_path / "lint.json"
    rc = main([
        "analyze", "lint", str(bad),
        "--format", "json", "--out", str(out_path),
    ])
    assert rc == 1
    doc = json.loads(out_path.read_text())
    assert [finding["rule"] for finding in doc] == ["wall-clock"]


def test_analyze_lint_json_output(tmp_path, capsys):
    clean = tmp_path / "ok.py"
    clean.write_text("x = 1\n")
    assert main(["analyze", "lint", str(clean), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == []
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nt = time.time()\n")
    assert main(["analyze", "lint", str(bad), "--format", "json"]) == 1


def test_analyze_plan_json_output(tmp_path):
    out_path = tmp_path / "plan.json"
    rc = main([
        "analyze", "plan", "--quick",
        "--format", "json", "--out", str(out_path),
    ])
    assert rc == 0
    # The committed plan suite is clean: an empty findings list
    # (adversarial plans that are *correctly* rejected are not
    # findings — only verifier misses would be).
    assert json.loads(out_path.read_text()) == []


def test_analyze_interference_smoke_example_clean(capsys):
    spec = os.path.join(EXAMPLES, "serve_smoke.json")
    assert main(["analyze", "interference", spec]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out
    assert "signature" in out


def test_analyze_interference_conflict_example_json(tmp_path):
    spec = os.path.join(EXAMPLES, "serve_conflict.json")
    out_path = tmp_path / "report.json"
    rc = main([
        "analyze", "interference", spec,
        "--format", "json", "--out", str(out_path),
    ])
    assert rc == 1
    doc = json.loads(out_path.read_text())
    assert [f["kind"] for f in doc["findings"]] == ["link-overcommit"]
    with open(os.path.join(EXAMPLES, "serve_conflict.signature")) as fh:
        assert doc["signature"] == fh.read().strip()


def test_analyze_interference_expect_signature(capsys):
    spec = os.path.join(EXAMPLES, "serve_conflict.json")
    with open(os.path.join(EXAMPLES, "serve_conflict.signature")) as fh:
        expected = fh.read().strip()
    assert main([
        "analyze", "interference", spec, "--expect-signature", expected,
    ]) == 0
    assert main([
        "analyze", "interference", spec, "--expect-signature", "0" * 64,
    ]) == 1


def test_analyze_interference_plans_dir(tmp_path, capsys):
    from repro.analysis.advgen import plan_from_paths
    from repro.analysis.plan import plan_to_dict

    plans_dir = tmp_path / "plans"
    plans_dir.mkdir()
    plans = [
        plan_from_paths(3, ("a", "b", "c"), ("a", "d", "c"), version=2),
        plan_from_paths(3, ("a", "d", "c"), ("a", "e", "c"), version=3),
    ]
    for index, plan in enumerate(plans):
        (plans_dir / f"plan{index}.json").write_text(
            json.dumps(plan_to_dict(plan))
        )
    rc = main(["analyze", "interference", str(plans_dir)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "version-slot-race" in out
    # Same-flow serialization (the orchestrator's structural rule)
    # silences the race.
    rc = main([
        "analyze", "interference", str(plans_dir),
        "--serialize-same-flow",
    ])
    assert rc == 0
