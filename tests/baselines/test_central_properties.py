"""Property-based safety tests for the Central baseline's round
construction: any interleaving of a round's flips must be safe."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.consistency import LiveChecker
from repro.harness.baselines_build import build_central_network
from repro.params import DelayDistribution, SimParams
from repro.topo import ring_topology
from repro.traffic.flows import Flow


def fast_params(seed):
    return SimParams(
        seed=seed,
        pipeline_delay=DelayDistribution.constant(0.1),
        # Widely varying install delays maximise interleaving diversity
        # inside a round — the condition joint-safety must survive.
        baseline_install_delay=DelayDistribution.exponential(20.0),
        controller_service=DelayDistribution.constant(0.3),
        controller_background_util=0.0,
    )


def arc(n, start, length, direction):
    step = 1 if direction else -1
    return [f"n{(start + step * i) % n}" for i in range(length + 1)]


@st.composite
def central_case(draw):
    n = draw(st.integers(min_value=4, max_value=8))
    start = draw(st.integers(min_value=0, max_value=n - 1))
    length = draw(st.integers(min_value=2, max_value=n - 2))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return n, start, length, seed


@given(central_case())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_central_rounds_safe_under_any_interleaving(case):
    n, start, length, seed = case
    old = arc(n, start, length, direction=True)
    new = arc(n, start, n - length, direction=False)
    topo = ring_topology(n, latency_ms=1.0)
    topo.set_controller(old[0])
    dep = build_central_network(topo, params=fast_params(seed))
    checker = LiveChecker(dep.forwarding_state, dep.network.trace)
    flow = Flow.between(old[0], old[-1], size=1.0, old_path=old)
    dep.install_flow(flow)
    dep.controller.update_flow(flow.flow_id, new)
    dep.run(until=30_000.0)
    assert checker.ok, checker.violations
    assert dep.controller.update_complete(flow.flow_id)
    walk, outcome = dep.forwarding_state.walk(flow.flow_id)
    assert outcome == "delivered" and walk == new


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_central_two_flows_capacity_never_violated(seed):
    """Two flows swapping around a tight ring: either the controller
    schedules them consistently or defers — it must never violate a
    link capacity in flight."""
    rng = np.random.default_rng(seed)
    size = float(rng.uniform(2.0, 6.0))
    topo = ring_topology(6, latency_ms=1.0, capacity=10.0)
    topo.set_controller("n0")
    dep = build_central_network(topo, params=fast_params(seed))
    dep.set_congestion_aware(True)
    checker = LiveChecker(dep.forwarding_state, dep.network.trace)
    f1 = Flow.between("n0", "n3", size=size, old_path=["n0", "n1", "n2", "n3"])
    f2 = Flow(flow_id=f1.flow_id + 1, src="n0", dst="n3", size=size,
              old_path=["n0", "n5", "n4", "n3"])
    dep.install_flow(f1)
    dep.install_flow(f2)
    dep.controller.update_flow(f1.flow_id, ["n0", "n5", "n4", "n3"])
    dep.controller.update_flow(f2.flow_id, ["n0", "n1", "n2", "n3"])
    dep.run(until=30_000.0)
    assert checker.ok, checker.violations
    # Both flows always deliverable.
    for fid in (f1.flow_id, f2.flow_id):
        _, outcome = dep.forwarding_state.walk(fid)
        assert outcome == "delivered"
