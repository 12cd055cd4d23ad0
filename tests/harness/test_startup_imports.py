"""Every process loads only the code it runs.

Only ez-Segway's centralized dependency graph uses networkx, imported
inside ``congestion_dependency_graph``; only a process-pool fleet
(``--workers`` > 1) needs ``concurrent.futures.process`` and
``multiprocessing``; only a Topology Zoo GraphML file needs
``xml.etree.ElementTree``.  A fresh interpreter that starts the CLI,
runs the example service workload and the example ops session must
finish without any of them: each sweep shard, serve replica or CLI call
would otherwise pay their import (~13 MB and a fifth of set-up for
networkx, ~1.9 MB for the other two) again.

The same holds inside ``repro`` (docs/ARCHITECTURE.md, "What a process
loads"): an optional feature imports its implementation where it is
switched on.  A plain serve run (no events, causal tracing off, the
interference gate off) loads no analysis, baseline, chaos, sweep, fuzz
or ops module, no experiment driver and no topology but its own; and
``import repro.harness.cli`` loads none of its handlers'
implementations.  Without ``.pyc`` files each module is compiled from
source in every such process, so what it loads is set-up time and
resident memory.
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

#: Starts the CLI, runs the example serve and ops workloads and prints
#: which of ``UNUSED`` they left in ``sys.modules``.
_RUN = f"""
import sys
from repro.harness.cli import build_parser
from repro.ops.session import run_session
from repro.ops.spec import load_session_spec_file
from repro.serve.service import run_service
from repro.serve.spec import load_serve_spec_file

build_parser()
assert run_service(load_serve_spec_file("examples/serve_smoke.json")).consistent
run_session(load_session_spec_file("examples/ops_drain.json"))
print(*[name for name in {UNUSED!r} if name in sys.modules])
"""


#: A serve run shaped like the perf ledger's ``serve_b4_8f``.
_SERVE = """
import sys
from repro.serve.service import run_service
from repro.serve.spec import ServeSpec

spec = ServeSpec(
    name="plain", topology="b4", mode="open", flows=8, requests=40,
    arrival_rate_per_s=3.0, queue_depth=16, shed_policy="park",
    conflict_policy="serialize", horizon_ms=1.0e9, params={"seed": 1},
)
assert run_service(spec).completed == 40
print(*sorted(name for name in sys.modules if name.startswith("repro")))
"""

_IMPORT_CLI = """
import sys
import repro.harness.cli
print(*sorted(name for name in sys.modules if name.startswith("repro")))
"""

#: What a plain serve run must not load (a trailing ``*``: the package
#: and everything in it).
SERVE_UNUSED = (
    "repro.analysis*", "repro.baselines*", "repro.chaos*", "repro.sweep*",
    "repro.fuzz*", "repro.ops*", "repro.harness.sweep_kind",
    "repro.harness.experiment", "repro.harness.prep", "repro.obs.causal",
)

#: What importing the CLI must not load.
CLI_UNUSED = (
    "repro.harness.fig_experiments", "repro.harness.experiment",
    "repro.harness.probes", "repro.harness.metrics", "repro.obs.tracefile",
    "repro.baselines*",
)

#: The topology modules behind ``repro.topo.TOPOLOGIES``.
TOPOLOGY_MODULES = (
    "repro.topo.attmpls", "repro.topo.b4", "repro.topo.chinanet",
    "repro.topo.fattree", "repro.topo.internet2", "repro.topo.synthetic",
    "repro.topo.zoo",
)


@functools.cache
def _stdout(code: str) -> tuple[str, ...]:
    """What a fresh interpreter running ``code`` prints, split."""
    run = subprocess.run(
        [sys.executable, "-B", "-c", code],
        capture_output=True, text=True, check=True, cwd=ROOT,
        # ``-B``: this env drops PYTHONDONTWRITEBYTECODE, and the child
        # must not write bytecode into the checkout either.
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
    )
    return tuple(run.stdout.split())


def _matching(modules: tuple[str, ...], patterns: tuple[str, ...]) -> list[str]:
    return [
        name for name in modules for pattern in patterns
        if name == pattern.rstrip("*")
        or (pattern.endswith("*") and name.startswith(pattern[:-1] + "."))
    ]


def test_cli_serve_and_ops_run_without_networkx():
    assert "networkx" not in _stdout(_RUN)


def test_cli_serve_and_ops_run_without_process_pool_or_xml():
    assert _stdout(_RUN) == ()


def test_a_plain_serve_run_loads_no_optional_feature():
    modules = _stdout(_SERVE)
    assert "repro.serve.service" in modules
    assert _matching(modules, SERVE_UNUSED) == []
    assert [m for m in modules if m in TOPOLOGY_MODULES] == ["repro.topo.b4"]


def test_importing_the_cli_loads_no_handler_implementation():
    modules = _stdout(_IMPORT_CLI)
    assert "repro.harness.cli" in modules
    assert _matching(modules, CLI_UNUSED) == []
