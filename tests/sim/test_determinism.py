"""Determinism: identical seeds give bit-identical traces."""

import numpy as np

from repro.core.messages import UpdateType
from repro.harness.build import build_p4update_network
from repro.harness.scenarios import multi_flow_scenario
from repro.params import SimParams
from repro.topo.b4 import b4_topology
from repro.topo.synthetic import FIG1_NEW_PATH, FIG1_OLD_PATH, fig1_topology
from repro.traffic.flows import Flow


import re


def trace_signature(dep):
    """Normalised trace: packet ids are process-global counters and
    carry no semantics, so they are stripped before comparison."""
    return [
        (
            round(e.time, 9),
            e.kind,
            e.node,
            tuple(sorted(re.sub(r"#\d+", "#", str(e.detail)).split())),
        )
        for e in dep.network.trace
    ]


def run_fig1(seed):
    dep = build_p4update_network(
        fig1_topology(), params=SimParams(seed=seed).with_dionysus_install_delay()
    )
    flow = Flow.between("v0", "v7", size=1.0, old_path=list(FIG1_OLD_PATH))
    dep.install_flow(flow)
    dep.controller.update_flow(flow.flow_id, list(FIG1_NEW_PATH), UpdateType.DUAL)
    dep.run()
    return dep


def test_same_seed_same_trace():
    a = trace_signature(run_fig1(7))
    b = trace_signature(run_fig1(7))
    assert a == b


def test_different_seed_different_timing():
    a = trace_signature(run_fig1(7))
    b = trace_signature(run_fig1(8))
    assert a != b


def test_multi_flow_experiment_deterministic():
    from repro.harness.experiment import run_experiment

    scenario1 = multi_flow_scenario(b4_topology(), np.random.default_rng(3))
    scenario2 = multi_flow_scenario(b4_topology(), np.random.default_rng(3))
    r1 = run_experiment("p4update-sl", scenario1, params=SimParams(seed=3))
    r2 = run_experiment("p4update-sl", scenario2, params=SimParams(seed=3))
    assert r1.total_update_time_ms == r2.total_update_time_ms
    assert r1.per_flow_ms == r2.per_flow_ms
