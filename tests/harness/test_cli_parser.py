"""``build_parser`` is built once per process; the cached tree must parse
every command line as a freshly built one does, whatever it parsed
before."""

import contextlib
import io
import json
import pathlib

import pytest

from repro.harness.cli import build_parser

PINNED = json.loads(
    pathlib.Path(__file__).with_name("pinned_cli.json").read_text()
)

#: Every command line of the pinned CLI cases, in recording order.
ARGVS = [
    line.replace("{tmp}", "/scratch").split()
    for case in PINNED
    for line in ("" if case == "(no arguments)" else case).split(" && ")
]

#: Pairs that differ only in repeatable or optional flags: whatever the
#: first leaves behind must not reach the second.
INTERLEAVED = [
    ("obs filter T --kind a --kind b", "obs filter T"),
    ("obs filter T --node v0 --t0 1 --out X", "obs filter T --node v1"),
    (
        "ops checkpoint S --dir D --stop-after 1",
        "ops checkpoint S --dir D",
    ),
    ("analyze lint --select wall-clock src", "analyze lint src"),
    ("--seed 3 fig4 --runs 2", "fig4"),
]


def _parse(parser, argv):
    """The namespace ``parser`` makes of ``argv``, or how it exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def test_the_tree_is_built_once():
    assert build_parser() is build_parser()
    assert build_parser.__wrapped__() is not build_parser()


def test_every_pinned_command_line_parses_as_in_a_fresh_tree():
    assert len(ARGVS) > len(PINNED)
    for argv in ARGVS:
        assert _parse(build_parser(), argv) == _parse(
            build_parser.__wrapped__(), argv
        ), argv


@pytest.mark.parametrize("first,second", INTERLEAVED)
def test_a_parse_does_not_leak_into_the_next(first, second):
    cached = build_parser()
    for _ in range(2):
        for line in (first, second):
            parsed = _parse(cached, line.split())
            assert not isinstance(parsed, tuple), parsed
            assert parsed == _parse(build_parser.__wrapped__(), line.split()), line
    assert _parse(cached, second.split()) != _parse(cached, first.split())
