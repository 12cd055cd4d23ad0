"""Fig. 8's operation counts do not depend on process history.

Two things used to leak into ``count_calls``.  networkx compiles each
``argmap``-decorated function lazily on its first call: the first
congestion dependency graph in a process cost several hundred extra
calls, so a fresh process (a ``--workers 2`` shard) and a warmed one
(``--workers 1`` after another topology) disagreed.  And a garbage
collection falling inside the count ran Python of its own (hypothesis
registers a ``gc.callbacks`` hook), so the counts moved inside the full
test suite.
"""

import gc
import json
import pathlib
import subprocess
import sys

from repro.harness.prep import count_operations, prep_workload
from repro.topo import TOPOLOGIES

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

_COUNT = """
import json
from repro.harness.prep import count_operations, prep_workload
from repro.topo import TOPOLOGIES
topo, scenario, deployment = prep_workload(TOPOLOGIES["b4"])
print(json.dumps(count_operations(topo, deployment, scenario.flows, updates=5)))
"""


def _counts(topology: str) -> list[int]:
    topo, scenario, deployment = prep_workload(TOPOLOGIES[topology])
    return list(count_operations(topo, deployment, scenario.flows, updates=5))


def test_fresh_process_count_equals_warmed_count():
    fresh = subprocess.run(
        [sys.executable, "-c", _COUNT],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(SRC), "PATH": ""},
    )
    _counts("internet2")            # warm this process on another topology
    assert json.loads(fresh.stdout) == _counts("b4") == _counts("b4")


def test_a_collection_inside_the_count_is_not_counted():
    topo, scenario, deployment = prep_workload(TOPOLOGIES["b4"])
    expected = _counts("b4")
    hook = lambda phase, info: None
    thresholds = gc.get_threshold()
    gc.callbacks.append(hook)
    gc.set_threshold(1)             # collect on (nearly) every allocation
    try:
        counted = count_operations(topo, deployment, scenario.flows, updates=5)
    finally:
        gc.set_threshold(*thresholds)
        gc.callbacks.remove(hook)
    assert list(counted) == expected
