"""Every user-visible byte of the ``p4update-repro`` CLI, pinned at the
commit before its nine hand-rolled routers became argparse
``set_defaults(run=...)`` and its print-and-return-``None`` loaders one
``CliError``.

Each entry of ``pinned_cli.json`` is one case: a sequence of command
lines run in-process through ``repro.harness.cli.main`` from the
repository root under ``COLUMNS=80``, sharing one scratch directory
(``{tmp}`` in the command line and in the recorded text), reduced to the
exit code, stdout and stderr of every command.  Three groups:

* ``--help`` of the root parser and of every parser below it;
* how each verb fails — missing file, malformed file, foreign file, bad
  flag combination — and what each group says when given no verb;
* what the fast deterministic verbs print on the committed examples.

The JSON is the parent commit's recording and stays that way:
``FIXED`` lists the cases whose bytes this change moved on purpose and
what they print now.  The ``fig8`` case was added to it once Fig. 8's
operation counts stopped depending on what ran earlier in the process.
The five cases that print a trace signature (``serve run`` twice,
``compete run``, ``chaos run``, ``ops run --seeds``) were re-recorded
three times, when signature format v2 replaced v1, when every ``msg_*``
record gained its ``type`` key and when causal attribution's inputs
became trace records; only their digests moved.  The case
that writes a checkpoint into another spec's directory was added with
the fix that made it an ``error:`` instead of a traceback, and so was
the case that hands a plain trace file to the three causal verbs.
The three cases on a campaign with an unknown field and on a chaos sweep
whose campaign names a missing node were added with the fix that made
``sweep plan`` / ``sweep run`` refuse such a sweep instead of failing
every shard.
The four ``analyze {interference,lint,pipeline,plan} --help`` cases were
re-recorded once, when the ``sarif`` choice of ``--format`` was deleted.
The two cases that write ops checkpoints were re-recorded once, when a
checkpoint became a manifest row: each ``checkpoint N at t=… -> …`` line
names ``checkpoints.json`` and the row's segment digest (deterministic,
so pinned) instead of a pickle file and its host-dependent sha256.
The refusal to checkpoint into another spec's directory was re-worded
once, when shard caches and checkpoint manifests came to be checked by
one reader (``repro.loading.read_stamped``): it names the manifest file
and both spec hashes.
The two cases that give ``obs filter`` / ``obs perfetto`` an ``--out``
in a missing directory were added with the fix that made them say
``cannot write`` and name that path, instead of ``cannot read`` and the
input (or the writer's temp file).  The ``obs export --help`` and
``sweep run --help`` cases were re-recorded once, when ``--profile``
became a CPU sampler (per function and per layer) instead of an engine
that timed each callback.  The ``analyze pipeline --help`` case lost
its ``--no-runtime-cap`` flag when the analyzer came to read the
resubmit cap from the switch that runs the program.  The ``sweep run
--workers 0`` case was added with the fix that made a worker count
below 1 a usage error instead of a banner and a traceback.  The
``compete duel --help`` case was re-recorded once, when its
``--strategies`` text came to say that the default line-up leaves out
the rows that order updates at dispatch.
Regenerate only for a deliberate change (and empty
``FIXED`` when you do)::

    PYTHONPATH=src python tests/harness/test_pinned_cli.py
"""

import argparse
import contextlib
import io
import json
import os
import pathlib
import re
import tempfile

import pytest

from repro.harness.cli import build_parser, main

REPO = pathlib.Path(__file__).resolve().parents[2]
PINNED_PATH = pathlib.Path(__file__).with_name("pinned_cli.json")


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def parser_tree(parser: argparse.ArgumentParser, prefix=()) -> dict:
    """Every parser below (and including) ``parser``, by verb path."""
    tree = {prefix: parser}
    for name, child in _subparsers(parser).items():
        tree.update(parser_tree(child, prefix + (name,)))
    return tree


PARSERS = parser_tree(build_parser())

HELP_CASES = [(" ".join((*path, "--help")),) for path in PARSERS]
NO_VERB_CASES = [
    (" ".join(path),) for path, parser in PARSERS.items() if _subparsers(parser)
]

_FLEET = "--cache-dir {tmp}/cache"
_OUT = "--out-dir {tmp}/out " + _FLEET

#: Each verb that reads a file, on a path that does not exist and on a
#: file that is not what it expects; flag errors; state errors.
ERROR_CASES = [
    (f"{verb} {{tmp}}/{name}{tail}",)
    for verb, tail in (
        ("run", ""),
        ("obs filter", ""),
        ("obs summary", ""),
        ("obs requests", ""),
        ("obs critical-path", " --request 0"),
        ("obs perfetto", " --out {tmp}/perfetto.json"),
        ("analyze interference", ""),
        ("chaos run", " " + _FLEET),
        ("chaos validate", ""),
        ("compete validate", ""),
        ("compete run", " " + _OUT),
        ("fuzz run", " " + _OUT),
        ("fuzz replay", ""),
        ("fuzz shrink", ""),
        ("ops validate", ""),
        ("ops run", ""),
        ("ops checkpoint", " --dir {tmp}/ckpt"),
        ("serve validate", ""),
        ("serve run", " " + _OUT),
        ("sweep plan", ""),
        ("sweep run", " " + _OUT),
        ("sweep merge", " " + _OUT),
        ("sweep status", " " + _FLEET),
    )
    for name in ("missing.json", "malformed.json")
] + [
    ("ops resume --dir {tmp}/missing",),
    ("ops status --dir {tmp}/missing",),
    ("ops checkpoint {tmp}/no_cadence.json --dir {tmp}/ckpt",),
    (
        "ops checkpoint examples/ops_drain.json --dir {tmp}/ckpt --stop-after 1",
        "ops checkpoint {tmp}/other_session.json --dir {tmp}/ckpt",
    ),
    ("ops validate {tmp}/atlantis_session.json",),
    ("chaos validate {tmp}/atlantis_campaign.json",),
    ("chaos validate {tmp}/surprise_campaign.json",),
    ("sweep plan {tmp}/bad_chaos_sweep.json",),
    ("sweep run {tmp}/bad_chaos_sweep.json " + _OUT,),
    ("analyze interference {tmp}/plans_empty",),
    ("analyze interference {tmp}/plans_malformed",),
    ("analyze interference {tmp}/plans_foreign",),
    ("analyze interference examples/serve_smoke.json --expect-signature 0",),
    ("analyze lint --select nope",),
    ("compete validate examples/compete_smoke.json --strategies nope",),
    ("compete run examples/compete_smoke.json --strategies nope " + _OUT,),
    ("compete duel --strategies nope",),
    ("fuzz run --emit-corpus --no-shrink " + _OUT,),
    ("fuzz run --emit-corpus " + _OUT,),
    ("fuzz run --corpus {tmp}/plans_malformed " + _OUT,),
    ("fuzz run --kinds nope " + _OUT,),
    ("obs critical-path {tmp}/causal.jsonl --request 0",),
    ("obs filter {tmp}/causal.jsonl --out {tmp}/missing/filtered.jsonl",),
    ("obs perfetto {tmp}/causal.jsonl --out {tmp}/missing/perfetto.json",),
    (
        "obs export --out {tmp}/trace.jsonl",
        "obs requests {tmp}/trace.jsonl",
        "obs critical-path {tmp}/trace.jsonl --request 0",
        "obs perfetto {tmp}/trace.jsonl --out {tmp}/perfetto.json",
    ),
    ("sweep merge examples/sweep_smoke.json " + _OUT,),
    ("sweep status examples/sweep_smoke.json " + _FLEET,),
    ("sweep run examples/sweep_smoke.json --workers 0 " + _OUT,),
    ("fig7 z",),
]

#: Fast deterministic verbs on the committed examples.
EXAMPLE_CASES = [
    ("serve validate examples/serve_smoke.json",),
    ("ops validate examples/ops_drain.json",),
    ("compete validate examples/compete_smoke.json",),
    ("chaos validate examples/chaos_smoke.json",),
    ("sweep plan examples/sweep_smoke.json",),
    ("analyze pipeline",),
    ("analyze pipeline --format json",),
    ("analyze plan --quick",),
    ("analyze lint src/repro/version.py",),
    ("analyze interference examples/serve_smoke.json",),
    ("analyze interference examples/serve_conflict.json",),
    ("analyze interference examples/serve_smoke.json --seeds 2 " + _FLEET,),
    ("fig2",),
    ("fig4 --runs 1",),
    ("fig7 a --runs 1 " + _FLEET,),
    ("fig8 --updates 10 --count-updates 10 " + _FLEET,),
    ("demo",),
    ("run examples/sample_experiment.json",),
    ("serve run examples/serve_smoke.json " + _OUT,),
    ("serve run examples/serve_smoke.json --seeds 2 --causal --resume " + _OUT,),
    ("compete run examples/compete_smoke.json " + _OUT,),
    ("chaos run examples/chaos_smoke.json --manifest " + _OUT,),
    ("ops run examples/ops_drain.json",),
    ("ops run examples/ops_drain.json --manifest --out-dir {tmp}/out",),
    ("ops run examples/ops_fleet.json --seeds 2 " + _OUT,),
    (
        "ops checkpoint examples/ops_drain.json --dir {tmp}/ckpt --stop-after 1",
        "ops resume --dir {tmp}/ckpt --manifest --out-dir {tmp}/out",
    ),
    (
        "sweep run examples/sweep_smoke.json " + _OUT,
        "sweep status examples/sweep_smoke.json " + _FLEET,
        "sweep merge examples/sweep_smoke.json " + _OUT,
    ),
    (
        "obs export --out {tmp}/trace.jsonl",
        "obs summary {tmp}/trace.jsonl",
        "obs filter {tmp}/trace.jsonl --kind rule_change",
        "obs filter {tmp}/trace.jsonl --node v0 --out {tmp}/v0.jsonl",
    ),
    ("fuzz replay tests/fuzz/corpus/chaos-3d171a8e6c.json",),
    ("fuzz run --budget 8 --no-shrink --fail-on-new " + _OUT,),
    (
        "fuzz run --budget 12 --no-shrink --fail-on-new "
        "--corpus tests/fuzz/corpus " + _OUT,
    ),
]

CASES = HELP_CASES + NO_VERB_CASES + ERROR_CASES + EXAMPLE_CASES

def _error(code: int, message: str) -> list[dict]:
    return [{"code": code, "stdout": "", "stderr": f"error: {message}\n"}]


_BAD_JSON = (
    "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
)

def _out_dir_help(case: str, old: str, noun: str) -> list[dict]:
    """The pinned ``--help`` of ``case`` with its ``--out-dir`` text
    ``old`` replaced by the ``BENCH_DIR_HELP`` text for ``noun``."""
    [run] = json.loads(PINNED_PATH.read_text())[case]
    new = (
        f"  --out-dir OUT_DIR     directory for BENCH_{noun}_<name>.json "
        "(default: repo\n                        root or $REPRO_BENCH_DIR)\n"
    )
    assert old in run["stdout"], case
    return [dict(run, stdout=run["stdout"].replace(old, new))]


_OPS_OUT_DIR = (
    "  --out-dir OUT_DIR     manifest directory (default: benchmarks/baselines)\n"
)

#: Cases changed on purpose, with what they print now.  Two verbs died
#: with a traceback on a foreign file (``ValueError`` out of ``obs
#: summary`` / ``obs filter``, ``JSONDecodeError`` / ``KeyError`` out of
#: ``analyze interference <dir>``), and one ``error:`` went to stdout.
#: The chaos and ops ``--out-dir`` help named ``benchmarks/baselines``,
#: which was never the default directory.  ``analyze pipeline`` has no
#: ``--no-runtime-cap``.  ``--workers 0`` printed the banner, then
#: ``run_sweep``'s ``ValueError``.
FIXED: dict[str, list[dict]] = {
    "chaos run --help": _out_dir_help(
        "chaos run --help",
        "  --out-dir OUT_DIR     directory for the manifest (default:\n"
        "                        benchmarks/baselines)\n",
        "chaos",
    ),
    **{
        f"ops {verb} --help": _out_dir_help(f"ops {verb} --help", _OPS_OUT_DIR, "ops")
        for verb in ("run", "checkpoint", "resume")
    },
    "obs filter {tmp}/malformed.json": _error(
        1, "cannot read trace '{tmp}/malformed.json': bad trace line 1: " + _BAD_JSON
    ),
    "obs summary {tmp}/malformed.json": _error(
        1, "cannot read trace '{tmp}/malformed.json': bad trace line 1: " + _BAD_JSON
    ),
    "analyze interference {tmp}/plans_malformed": _error(
        2, "cannot load plan '{tmp}/plans_malformed/plan.json': " + _BAD_JSON
    ),
    "analyze interference {tmp}/plans_foreign": _error(
        2,
        "cannot load plan '{tmp}/plans_foreign/plan.json': "
        "not a plan document (KeyError: 'flow_id')",
    ),
    "analyze pipeline --help": [{
        "code": 0,
        "stdout": (
            "usage: p4update-repro analyze pipeline [-h] [--format {text,json}] [--out OUT]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --format {text,json}  report format\n"
            "  --out OUT             write the report to this file instead of stdout\n"
        ),
        "stderr": "",
    }],
    "sweep run examples/sweep_smoke.json --workers 0 " + _OUT: [{
        "code": 2,
        "stdout": "",
        "stderr": (
            "usage: p4update-repro sweep run [-h] [--workers WORKERS] [--resume]\n"
            "                                [--cache-dir CACHE_DIR] [--retries RETRIES]\n"
            "                                [--out-dir OUT_DIR] [--obs] [--profile]\n"
            "                                spec\n"
            "p4update-repro sweep run: error: argument --workers: must be >= 1, got 0\n"
        ),
    }],
    "analyze lint --select nope": _error(
        2,
        "unknown rule(s): nope\navailable: blocking-in-service, "
        "fuzz-nondeterminism, private-cross-import, "
        "set-iteration, unguarded-obs, unseeded-random, wall-clock",
    ),
}


def case_id(case) -> str:
    return " && ".join(case) or "(no arguments)"


#: Host-dependent text: wall-clock estimates and durations.
_VOLATILE = (
    (re.compile(r"eta \d+\.\d+s"), "eta {s}s"),
    (re.compile(r"elapsed:   \d+\.\d+ s"), "elapsed:   {s} s"),
    (re.compile(r"wall=\d+\.\d+ ms"), "wall={ms} ms"),
)


def _write_scratch_inputs(tmp: pathlib.Path) -> None:
    (tmp / "malformed.json").write_text("{not json\n")
    for name, body in (("malformed", "{not json\n"), ("foreign", "{}\n")):
        (tmp / f"plans_{name}").mkdir()
        (tmp / f"plans_{name}" / "plan.json").write_text(body)
    (tmp / "plans_empty").mkdir()
    (tmp / "causal.jsonl").write_text("")
    session = json.loads((REPO / "examples" / "ops_drain.json").read_text())
    (tmp / "no_cadence.json").write_text(
        json.dumps(dict(session, checkpoint_every_ms=0))
    )
    (tmp / "other_session.json").write_text(json.dumps(dict(session, tenants=2)))
    session["timeline"][0]["switch"] = "atlantis"
    (tmp / "atlantis_session.json").write_text(json.dumps(session))
    campaign = json.loads((REPO / "examples" / "chaos_smoke.json").read_text())
    (tmp / "surprise_campaign.json").write_text(json.dumps(dict(campaign, surprise=1)))
    campaign["events"][0]["node_b"] = "v9"
    sweep = {"name": "bad-chaos", "kind": "chaos", "runs": 2, "campaign": campaign}
    (tmp / "bad_chaos_sweep.json").write_text(json.dumps(sweep))
    campaign["events"][0].update(node_a="atlantis", node_b="v2")
    (tmp / "atlantis_campaign.json").write_text(json.dumps(campaign))


def run_command(line: str, tmp: pathlib.Path) -> dict:
    argv = [word.replace("{tmp}", str(tmp)) for word in line.split()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # what the user sees as a traceback
            code = f"traceback: {type(exc).__name__}: {exc}"

    def canonical(text: str) -> str:
        text = text.replace(str(tmp), "{tmp}")
        for pattern, replacement in _VOLATILE:
            text = pattern.sub(replacement, text)
        return text

    return {
        "code": code,
        "stdout": canonical(out.getvalue()),
        "stderr": canonical(err.getvalue()),
    }


def run_case(case, tmp: pathlib.Path) -> list[dict]:
    _write_scratch_inputs(tmp)
    return [run_command(line, tmp) for line in case]


@pytest.fixture(autouse=True)
def _pinned_environment(monkeypatch):
    monkeypatch.chdir(REPO)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("REPRO_BENCH_DIR", raising=False)


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PINNED_PATH.read_text())


def test_pinned_file_covers_every_case(pinned):
    assert set(pinned) == {case_id(case) for case in CASES}
    assert len(HELP_CASES) == 44 and len(NO_VERB_CASES) == 9
    assert set(FIXED) <= set(pinned)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_cli_case_is_byte_identical(case, pinned, tmp_path):
    expected = FIXED.get(case_id(case), pinned[case_id(case)])
    assert run_case(case, tmp_path) == expected


def test_every_leaf_verb_names_its_handler():
    for path, parser in PARSERS.items():
        if not _subparsers(parser):
            assert callable(parser.get_default("run")), path


if __name__ == "__main__":
    os.chdir(REPO)
    os.environ["COLUMNS"] = "80"
    os.environ.pop("REPRO_BENCH_DIR", None)
    recorded = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as scratch:
            recorded[case_id(case)] = run_case(case, pathlib.Path(scratch))
    PINNED_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINNED_PATH} ({len(recorded)} cases)")
