#!/usr/bin/env python
"""The program's observable behaviour as one ``name sha256`` line per entry.

A change that claims to be behaviour-neutral runs this at its parent and
at its head and compares the two outputs; every line that differs names
behaviour the change moved::

    python scripts/behaviour.py > head.txt
    python scripts/behaviour.py --compare parent.txt head.txt

The list is fixed:

* ``claims:<id>`` — each row of ``benchmarks/claims.py``: the value's
  ``repr`` and its verdict;
* ``analyze:<verb>`` — ``analyze plan --quick``, ``pipeline``,
  ``lint src/repro`` and ``interference`` on the committed serve
  examples: exit code, stdout and stderr;
* ``example:<file>`` — each committed ``examples/*.json`` through its
  verb, with a manifest where the verb writes one: exit code, stdout,
  stderr and every ``BENCH_*.json`` without its host-dependent keys;
* ``pinned:<file>`` — the document each ``pinned_*`` re-recorder would
  write, computed and not written (its check mode).

Commands run in this process through ``repro.harness.cli.main``, from
the repository root under ``COLUMNS=80``; a temporary directory's path
and wall-clock text are masked as ``tests/harness/test_pinned_cli.py``
masks them.  ``--compare A B`` prints the entries whose digests differ
or that only one side has, and exits 1 if there are any.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib.util
import json
import os
import pathlib
import sys
import tempfile
import traceback
from typing import Callable

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Manifest keys that record the host, not the run: top level, and
#: ``wall`` (duration, pid, preparation time) at any depth.
_HOST_KEYS = ("created", "version", "spans", "profile")

ANALYZE = (
    "analyze plan --quick",
    "analyze pipeline",
    "analyze lint src/repro",
    "analyze interference examples/serve_smoke.json",
    "analyze interference examples/serve_conflict.json",
)

_OUT = "--out-dir {tmp}/out --cache-dir {tmp}/cache"

#: Each committed example through the verb that runs it.
EXAMPLES = {
    "chaos_smoke.json": "chaos run {spec} --manifest " + _OUT,
    "compete_smoke.json": "compete run {spec} " + _OUT,
    "fuzz_smoke.json": "fuzz run {spec} --no-shrink --corpus tests/fuzz/corpus " + _OUT,
    "ops_drain.json": "ops run {spec} --manifest --out-dir {tmp}/out",
    "ops_fleet.json": "ops run {spec} --seeds 2 --manifest " + _OUT,
    "sample_experiment.json": "run {spec}",
    "serve_conflict.json": "serve run {spec} " + _OUT,
    "serve_smoke.json": "serve run {spec} " + _OUT,
    "sweep_smoke.json": "sweep run {spec} " + _OUT,
}


def _load(path: str):
    spec = importlib.util.spec_from_file_location(pathlib.Path(path).stem, ROOT / path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _strip_wall(value):
    if isinstance(value, dict):
        return {k: _strip_wall(v) for k, v in value.items() if k != "wall"}
    if isinstance(value, list):
        return [_strip_wall(v) for v in value]
    return value


def run_verb(line: str) -> dict:
    """Exit code, stdout, stderr and the manifests one command wrote."""
    from tests.harness.test_pinned_cli import run_command

    with tempfile.TemporaryDirectory() as tmp:
        ran = run_command(line, pathlib.Path(tmp))
        for path in sorted(pathlib.Path(tmp).glob("out/BENCH_*.json")):
            doc = json.loads(path.read_text())
            ran[path.name] = _strip_wall({k: v for k, v in doc.items() if k not in _HOST_KEYS})
    return ran


def pinned_cli() -> dict:
    from tests.harness import test_pinned_cli as pins

    recorded = {}
    for case in pins.CASES:
        with tempfile.TemporaryDirectory() as tmp:
            recorded[pins.case_id(case)] = pins.run_case(case, pathlib.Path(tmp))
    return recorded


def pinned() -> dict[str, Callable[[], object]]:
    from tests import reference_scenarios as scenarios
    from tests.fuzz import test_pinned_lanes
    from tests.harness import test_pinned_systems
    from tests.serve import test_pinned_sessions as sessions

    return {
        "tests/pinned_scenarios.json": lambda: {
            name: scenarios.record(name) for name in sorted(scenarios.SCENARIOS)
        },
        "tests/harness/pinned_systems.json": test_pinned_systems.compute_all,
        "tests/serve/pinned_sessions.json": lambda: {
            cell: sessions.compute_cell(cell) for cell in sessions.CELLS
        },
        "tests/fuzz/pinned_lanes.json": test_pinned_lanes.compute_all,
        "tests/harness/pinned_cli.json": pinned_cli,
    }


def entries() -> list[tuple[str, Callable[[], object]]]:
    """The fixed list, by name; nothing runs until an entry is called."""
    assert sorted(EXAMPLES) == sorted(p.name for p in (ROOT / "examples").glob("*.json"))
    claims = _load("benchmarks/claims.py")

    @functools.cache
    def figure(name: str):
        try:
            return claims.FIGURES[name]()
        except Exception as exc:      # each row of the figure reports it
            return exc

    def row(claim) -> str:
        result = figure(claim.figure)
        if isinstance(result, Exception):
            raise result
        value = float(claim.metric(result))
        return f"{value!r} {claim.verdict(value)}"

    return [
        *((f"claims:{c.id}", functools.partial(row, c)) for c in claims.CLAIMS),
        *((f"analyze:{line.removeprefix('analyze ')}", functools.partial(run_verb, line))
          for line in ANALYZE),
        *((f"example:{name}",
           functools.partial(run_verb, verb.replace("{spec}", f"examples/{name}")))
          for name, verb in EXAMPLES.items()),
        *((f"pinned:{path}", compute) for path, compute in pinned().items()),
    ]


def digest(value: object) -> str:
    text = value if isinstance(value, str) else json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_all() -> None:
    os.chdir(ROOT)                    # as test_pinned_cli runs its cases
    os.environ["COLUMNS"] = "80"
    os.environ.pop("REPRO_BENCH_DIR", None)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    out = sys.stdout
    with contextlib.redirect_stdout(sys.stderr):   # what an entry prints is not a line
        for name, compute in entries():
            try:
                value = compute()
            except Exception as exc:      # a failure is behaviour too
                traceback.print_exc()
                value = f"raised {type(exc).__name__}: {exc}"
            print(f"{name} {digest(value)}", file=out, flush=True)


def read_lines(path: str) -> dict[str, str]:
    """Entry name -> digest of one output."""
    return dict(line.rsplit(" ", 1) for line in pathlib.Path(path).read_text().splitlines())


def compare(a: str, b: str) -> list[str]:
    """One line per entry whose digest differs or that one side lacks."""
    left, right = read_lines(a), read_lines(b)
    report = []
    for name in sorted(left.keys() | right.keys()):
        if name not in right:
            report.append(f"only in {a}: {name}")
        elif name not in left:
            report.append(f"only in {b}: {name}")
        elif left[name] != right[name]:
            report.append(f"differs: {name}")
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="list the entries of two outputs that differ")
    args = parser.parse_args(argv)
    if args.compare is None:
        run_all()
        return 0
    report = compare(*args.compare)
    for line in report:
        print(line)
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
