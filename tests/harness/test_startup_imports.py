"""P4Update runs never import networkx.

Only ez-Segway's centralized dependency graph uses it, imported inside
``congestion_dependency_graph``.  A fresh interpreter that starts the
CLI, runs the example service workload and the example ops session must
finish without it: each sweep shard, serve replica or CLI call would
otherwise pay its import (~13 MB and a fifth of set-up) again.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]

_RUN = """
import sys
from repro.harness.cli import build_parser
from repro.ops import load_session_spec_file, run_session
from repro.serve import load_serve_spec_file, run_service

build_parser()
assert run_service(load_serve_spec_file("examples/serve_smoke.json")).consistent
run_session(load_session_spec_file("examples/ops_drain.json"))
print("networkx" in sys.modules)
"""


def test_cli_serve_and_ops_run_without_networkx():
    run = subprocess.run(
        [sys.executable, "-c", _RUN],
        capture_output=True, text=True, check=True, cwd=ROOT,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
    )
    assert run.stdout.split() == ["False"]
