"""Declarative experiment specifications.

A spec is a plain dict (usually loaded from JSON) describing a
complete experiment — topology, flows, updates, system, knobs — so
that runs can be shared, versioned and replayed from the command line:

    {
      "topology": {"name": "b4"},
      "system": "p4update",
      "seed": 7,
      "flows": [
        {"src": "hamina-fi", "dst": "singapore", "size": 2.0,
         "old_path": "shortest", "new_path": "second-shortest"}
      ]
    }

``p4update-repro run spec.json`` executes it and prints the outcome.
Topologies can be built-ins (by name, with optional parameters) or a
Topology Zoo GraphML file.
"""

from __future__ import annotations

from typing import Any

from repro.harness.experiment import ExperimentResult, run_experiment
from repro.harness.scenarios import UpdateScenario
from repro.loading import read_json_object, unknown_fields
from repro.params import SimParams
from repro.topo import TOPOLOGIES
from repro.topo.fattree import fattree_topology
from repro.topo.graph import Topology
from repro.topo.synthetic import ring_topology
from repro.topo.zoo import load_graphml
from repro.traffic.flows import Flow, flow_hash
from repro.traffic.paths import second_shortest_path


class SpecError(ValueError):
    """Raised for malformed experiment specifications."""


#: The fields each part of a spec may carry; any other is a typo.
_SPEC_FIELDS = ("description", "topology", "controller", "system", "seed",
                "congestion_aware", "dionysus_install_delays", "flows")
_TOPOLOGY_FIELDS = ("name", "file", "k", "n", "latency_ms")
_FLOW_FIELDS = ("src", "dst", "size", "old_path", "new_path", "flow_id")
#: The parameter fields each parameterised topology reads; a registered
#: topology and a GraphML ``file`` read none, and any other is refused.
_TOPOLOGY_PARAMS = {"fattree": ("k",), "ring": ("n", "latency_ms")}


def build_topology(spec: dict) -> Topology:
    """Materialise the ``topology`` section of a spec.  A field the
    named topology does not read (``n`` on ``b4``) is a
    :class:`SpecError` naming it, not a silent no-op."""
    name = spec.get("name")
    if "file" in spec:
        _refuse_unread(spec, repr(spec["file"]), ("name", "file"))
        return load_graphml(spec["file"], name=name)
    if name is None:
        raise SpecError("topology needs a 'name' or a 'file'")
    if name not in TOPOLOGIES and name not in _TOPOLOGY_PARAMS:
        raise SpecError(
            f"unknown topology {name!r}; choose from "
            f"{sorted(TOPOLOGIES) + ['fattree', 'ring']}"
        )
    _refuse_unread(spec, repr(name), ("name", *_TOPOLOGY_PARAMS.get(name, ())))
    if name == "fattree":
        return fattree_topology(int(spec.get("k", 4)))
    if name == "ring":
        return ring_topology(
            int(spec.get("n", 6)), latency_ms=float(spec.get("latency_ms", 1.0))
        )
    return TOPOLOGIES[name]()


def _refuse_unread(spec: dict, topology: str, reads: tuple[str, ...]) -> None:
    unread = sorted(set(spec) - set(reads))
    if unread:
        raise SpecError(f"topology {topology} does not read field(s) {unread}")


def _resolve_path(topo: Topology, src: str, dst: str, spec: Any, label: str):
    """A path spec is 'shortest', 'second-shortest', 'k-shortest:N', or
    an explicit node list."""
    if isinstance(spec, list):
        return list(spec)
    for node in (src, dst):
        if node not in topo.adj:
            raise SpecError(f"{label}: endpoint {node!r} is not a node of {topo.name!r}")
    if src == dst:
        raise SpecError(f"{label}: src and dst are both {src!r}")
    if spec == "shortest":
        return topo.shortest_path(src, dst)
    if spec == "second-shortest":
        path = second_shortest_path(topo, src, dst)
        if path is None:
            raise SpecError(f"{label}: no second-shortest path {src}->{dst}")
        return path
    if isinstance(spec, str) and spec.startswith("k-shortest:"):
        rank = spec.split(":", 1)[1]
        if not rank.isdecimal() or int(rank) < 1:
            raise SpecError(f"{label}: k in {spec!r} must be an integer >= 1")
        k = int(rank)
        paths = topo.k_shortest_paths(src, dst, k)
        if len(paths) < k:
            raise SpecError(f"{label}: fewer than {k} paths {src}->{dst}")
        return paths[k - 1]
    raise SpecError(f"{label}: bad path spec {spec!r}")


def build_scenario(spec: dict) -> UpdateScenario:
    """Materialise the topology + flows of a spec; a misspelled field
    anywhere in it is a :class:`SpecError`, not a silent default."""
    problems = unknown_fields(spec, _SPEC_FIELDS, "spec")
    problems += unknown_fields(spec.get("topology", {}), _TOPOLOGY_FIELDS, "topology")
    for i, flow_spec in enumerate(spec.get("flows") or ()):
        problems += unknown_fields(flow_spec, _FLOW_FIELDS, f"flow #{i}")
    if problems:
        raise SpecError("; ".join(problems))
    topo = build_topology(spec.get("topology", {}))
    if "controller" in spec:
        topo.set_controller(spec["controller"])
    flow_specs = spec.get("flows")
    if not flow_specs:
        raise SpecError("spec needs at least one flow")
    flows = []
    for i, flow_spec in enumerate(flow_specs):
        try:
            src, dst = flow_spec["src"], flow_spec["dst"]
        except KeyError as exc:
            raise SpecError(f"flow #{i}: missing {exc}") from None
        old = _resolve_path(
            topo, src, dst, flow_spec.get("old_path", "shortest"), f"flow #{i} old"
        )
        new = _resolve_path(
            topo, src, dst, flow_spec.get("new_path", "second-shortest"),
            f"flow #{i} new",
        )
        flows.append(
            Flow(
                flow_id=flow_spec.get("flow_id", flow_hash(src, dst)),
                src=src, dst=dst,
                size=float(flow_spec.get("size", 1.0)),
                old_path=old, new_path=new,
            )
        )
    return UpdateScenario(topo, flows, spec.get("description", "spec scenario"))


def run_spec(spec: dict) -> ExperimentResult:
    """Execute a full experiment spec."""
    scenario = build_scenario(spec)
    params = SimParams(seed=int(spec.get("seed", 0)))
    if spec.get("dionysus_install_delays"):
        params = params.with_dionysus_install_delay()
    return run_experiment(
        spec.get("system", "p4update"),
        scenario,
        params=params,
        congestion_aware=bool(spec.get("congestion_aware", True)),
    )


def run_spec_file(path: str) -> ExperimentResult:
    return run_spec(read_json_object(path, "experiment spec", SpecError))
