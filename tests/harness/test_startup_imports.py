"""P4Update runs import nothing they do not use.

Only ez-Segway's centralized dependency graph uses networkx, imported
inside ``congestion_dependency_graph``; only a process-pool fleet
(``--workers`` > 1) needs ``concurrent.futures.process`` and
``multiprocessing``; only a Topology Zoo GraphML file needs
``xml.etree.ElementTree``.  A fresh interpreter that starts the CLI,
runs the example service workload and the example ops session must
finish without any of them: each sweep shard, serve replica or CLI call
would otherwise pay their import (~13 MB and a fifth of set-up for
networkx, ~1.9 MB for the other two) again.
"""

import functools
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]

UNUSED = (
    "networkx",
    "concurrent.futures.process",
    "multiprocessing",
    "xml.etree.ElementTree",
)

_RUN = f"""
import sys
from repro.harness.cli import build_parser
from repro.ops import load_session_spec_file, run_session
from repro.serve import load_serve_spec_file, run_service

build_parser()
assert run_service(load_serve_spec_file("examples/serve_smoke.json")).consistent
run_session(load_session_spec_file("examples/ops_drain.json"))
print(*[name for name in {UNUSED!r} if name in sys.modules])
"""


@functools.cache
def _loaded() -> tuple[str, ...]:
    """Which of ``UNUSED`` the run left in ``sys.modules``."""
    run = subprocess.run(
        [sys.executable, "-B", "-c", _RUN],
        capture_output=True, text=True, check=True, cwd=ROOT,
        # ``-B``: this env drops PYTHONDONTWRITEBYTECODE, and the child
        # must not write bytecode into the checkout either.
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
    )
    return tuple(run.stdout.split())


def test_cli_serve_and_ops_run_without_networkx():
    assert "networkx" not in _loaded()


def test_cli_serve_and_ops_run_without_process_pool_or_xml():
    assert _loaded() == ()
