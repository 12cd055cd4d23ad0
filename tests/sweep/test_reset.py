"""The module-state audit: nothing a run leaves behind in the process.

Same-seed runs in one process print the same trace only because *all*
run state lives in the objects of one deployment — engine, network
(packet numbering included), nodes, RNG streams — so there is nothing
process-wide to reset before a run or to save beside a checkpoint.
This audit keeps it that way: no module-level ``itertools.count``, no
``global`` rebinding anywhere in ``src/repro``, and exactly the known
module-level containers that start empty and fill up later.

One such store is filled at run time on purpose:
``repro.topo.graph._STRUCTURE_MEMO``, a pure function of graph
structure (``tests/topo/test_structure_memo.py`` holds it to that).
The audit names it, so a second such store cannot arrive unnoticed."""

import ast
import glob
import os
import re

from repro.core.messages import UpdateType
from repro.harness.build import build_p4update_network
from repro.params import SimParams
from repro.serve.service import run_service
from repro.serve.spec import load_serve_spec_file
from repro.sim.trace import trace_signature
from repro.topo.synthetic import FIG1_NEW_PATH, FIG1_OLD_PATH, fig1_topology
from repro.traffic.flows import Flow

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(REPO, "src", "repro")

#: Module-level statements that create mutable cross-run state.
_COUNTER_PATTERN = re.compile(
    r"^[A-Za-z_][A-Za-z0-9_]*\s*=\s*(?:itertools\.)?count\(", re.MULTILINE
)

#: Module-level containers that start empty, i.e. are filled later.
_STORE_PATTERN = re.compile(
    r"^([A-Za-z_][A-Za-z0-9_]*)(?:\s*:[^=\n]+)?\s*=\s*"
    r"(?:\{\}|\[\]|dict\(\)|list\(\)|set\(\))\s*$",
    re.MULTILINE,
)


def _sources():
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        with open(path, encoding="utf-8") as handle:
            yield os.path.relpath(path, SRC), handle.read()


def test_structure_memo_is_the_one_run_filled_store():
    stores = [
        f"{path}:{name}"
        for path, text in _sources()
        for name in _STORE_PATTERN.findall(text)
    ]
    assert sorted(stores) == [
        # Filled by rule registration at import time, not by runs.
        "analysis/linter.py:_REGISTRY",
        # Filled by runs; never cleared, because its answers depend on
        # graph structure alone (see the comment at its definition).
        "topo/graph.py:_STRUCTURE_MEMO",
    ]


def test_no_module_level_count_iterators():
    offenders = {
        path: hits for path, text in _sources()
        if (hits := _COUNTER_PATTERN.findall(text))
    }
    assert not offenders, (
        "module-level itertools.count found — a counter belongs to the "
        "deployment that uses it (see Network.take_packet_id for the "
        f"shape): {offenders}"
    )


def test_no_global_rebinding():
    offenders = [
        f"{path}:{node.lineno}: global {', '.join(node.names)}"
        for path, text in _sources()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Global)
    ]
    assert not offenders, (
        "a `global` statement rebinds process-wide state, which a later "
        f"run in the same process would see: {offenders}"
    )


def _fig1_dl_update() -> str:
    deployment = build_p4update_network(fig1_topology(), params=SimParams(seed=0))
    flow = Flow.between("v0", "v7", size=1.0, old_path=list(FIG1_OLD_PATH))
    deployment.install_flow(flow)
    deployment.controller.update_flow(flow.flow_id, list(FIG1_NEW_PATH), UpdateType.DUAL)
    deployment.run()
    return trace_signature(deployment.network.trace)


def test_same_seed_runs_back_to_back_sign_equal():
    """Two same-seed runs in one process, nothing reset in between, print
    the same trace: each network numbers its own packets, so both runs
    count from 1."""
    assert _fig1_dl_update() == _fig1_dl_update()
    spec = load_serve_spec_file(os.path.join(REPO, "examples", "serve_smoke.json"))
    assert run_service(spec).trace_sig == run_service(spec).trace_sig
