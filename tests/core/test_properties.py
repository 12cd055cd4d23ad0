"""Property-based tests (hypothesis) for the paper's correctness claims.

Theorems 1-4 / Corollaries 1-4: under arbitrary update scenarios and an
adversarial network (message delay, duplication, drop), the forwarding
state must be blackhole-, loop- and congestion-free **at every event
instant**, and — when the adversary is fair (no drops) — converge to
the highest-version update.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.messages import UpdateType
from repro.harness.build import build_p4update_network
from repro.params import DelayDistribution, SimParams
from repro.sim.faults import FaultModel
from repro.topo.synthetic import ring_topology
from repro.traffic.flows import Flow

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def fast_params(seed):
    return SimParams(
        seed=seed,
        pipeline_delay=DelayDistribution.constant(0.1),
        rule_install_delay=DelayDistribution.constant(1.0),
        controller_service=DelayDistribution.constant(0.2),
        controller_background_util=0.0,
        unm_generation_delay=DelayDistribution.constant(0.5),
    )


def arc(n, start, length, direction):
    """A simple path along the ring of size n."""
    step = 1 if direction else -1
    return [f"n{(start + step * i) % n}" for i in range(length + 1)]


@st.composite
def ring_update_case(draw):
    n = draw(st.integers(min_value=4, max_value=8))
    start = draw(st.integers(min_value=0, max_value=n - 1))
    length = draw(st.integers(min_value=2, max_value=n - 2))
    old = arc(n, start, length, direction=True)
    new = arc(n, start, n - length, direction=False)
    assert old[0] == new[0] and old[-1] == new[-1]
    seed = draw(st.integers(min_value=0, max_value=2**31))
    update_type = draw(st.sampled_from([UpdateType.SINGLE, UpdateType.DUAL]))
    return n, old, new, seed, update_type


@given(ring_update_case())
@settings(**SETTINGS)
def test_update_converges_and_stays_consistent(case):
    """Theorems 1-4: fair network -> consistency + convergence."""
    n, old, new, seed, update_type = case
    topo = ring_topology(n, latency_ms=1.0)
    topo.set_controller(old[0])
    dep = build_p4update_network(topo, params=fast_params(seed))
    flow = Flow.between(old[0], old[-1], size=1.0, old_path=old)
    dep.install_flow(flow)
    dep.controller.update_flow(flow.flow_id, new, update_type)
    dep.run(until=10_000.0)
    assert dep.checker.ok, dep.checker.violations
    assert dep.controller.update_complete(flow.flow_id)
    walk, outcome = dep.forwarding_state.walk(flow.flow_id)
    assert outcome == "delivered" and walk == new


@given(
    ring_update_case(),
    st.floats(min_value=0.0, max_value=0.3),
    st.floats(min_value=0.0, max_value=0.5),
)
@settings(**SETTINGS)
def test_consistency_under_message_drops_and_delays(case, drop_prob, delay_prob):
    """Verification model (§5-ii): even with dropped/delayed UNMs the
    partially implemented update must stay consistent (convergence is
    not required without recovery)."""
    n, old, new, seed, update_type = case
    topo = ring_topology(n, latency_ms=1.0)
    topo.set_controller(old[0])
    dep = build_p4update_network(topo, params=fast_params(seed))
    dep.network.fault_model = FaultModel(
        rng=np.random.default_rng(seed ^ 0xABCDEF),
        drop_prob=drop_prob,
        delay_prob=delay_prob,
        delay_ms=25.0,
    )
    flow = Flow.between(old[0], old[-1], size=1.0, old_path=old)
    dep.install_flow(flow)
    dep.controller.update_flow(flow.flow_id, new, update_type)
    dep.run(until=10_000.0)
    assert dep.checker.ok, dep.checker.violations
    _, outcome = dep.forwarding_state.walk(flow.flow_id)
    assert outcome == "delivered", "the flow must never lose its path"


@given(ring_update_case())
@settings(**SETTINGS)
def test_consistency_under_duplicated_messages(case):
    """Duplicate UNMs/UIMs must be idempotent."""
    n, old, new, seed, update_type = case
    topo = ring_topology(n, latency_ms=1.0)
    topo.set_controller(old[0])
    dep = build_p4update_network(topo, params=fast_params(seed))
    dep.network.fault_model = FaultModel(
        rng=np.random.default_rng(seed ^ 0x123456), duplicate_prob=0.5
    )
    dep.network.control_fault_model = FaultModel(
        rng=np.random.default_rng(seed ^ 0x654321), duplicate_prob=0.5
    )
    flow = Flow.between(old[0], old[-1], size=1.0, old_path=old)
    dep.install_flow(flow)
    dep.controller.update_flow(flow.flow_id, new, update_type)
    dep.run(until=10_000.0)
    assert dep.checker.ok, dep.checker.violations
    assert dep.controller.update_complete(flow.flow_id)
    walk, outcome = dep.forwarding_state.walk(flow.flow_id)
    assert outcome == "delivered" and walk == new


@given(ring_update_case(), st.integers(min_value=2, max_value=4))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_rapid_successive_updates_converge_to_highest_version(case, n_updates):
    """Theorem 2 / fast-forward: pushing several SL updates in rapid
    succession must converge to the last one."""
    n, old, new, seed, _ = case
    topo = ring_topology(n, latency_ms=1.0)
    topo.set_controller(old[0])
    dep = build_p4update_network(topo, params=fast_params(seed))
    flow = Flow.between(old[0], old[-1], size=1.0, old_path=old)
    dep.install_flow(flow)
    # Alternate between the two arcs without waiting for completion.
    targets = [new if i % 2 == 0 else old for i in range(n_updates)]
    for target in targets:
        dep.controller.update_flow(flow.flow_id, list(target), UpdateType.SINGLE)
    dep.run(until=20_000.0)
    assert dep.checker.ok, dep.checker.violations
    walk, outcome = dep.forwarding_state.walk(flow.flow_id)
    assert outcome == "delivered"
    assert walk == targets[-1], "must converge to the highest version"


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_corrupted_unm_distances_never_break_consistency(seed):
    """§7.1 scenarios (ii)/(iii): corruptions that violate the label
    invariants (distances/versions outside any valid proof for this
    update) are always rejected locally."""
    from repro.topo.synthetic import FIG1_NEW_PATH, FIG1_OLD_PATH, fig1_topology

    rng = np.random.default_rng(seed)

    def corrupt(packet):
        if packet.has_valid("unm"):
            header = packet.header("unm")
            field = rng.choice(["new_distance", "new_version", "old_distance"])
            # Push the label outside the valid range for Fig. 1 (max
            # distance 7, versions 1-2): detectably wrong.
            header[field] = int(rng.integers(8, 64))
        return packet

    topo = fig1_topology()
    dep = build_p4update_network(topo, params=fast_params(seed))
    dep.network.fault_model = FaultModel(
        rng=np.random.default_rng(seed ^ 0xF00D),
        corrupt_prob=0.4,
        corruptor=corrupt,
    )
    flow = Flow.between("v0", "v7", size=1.0, old_path=list(FIG1_OLD_PATH))
    dep.install_flow(flow)
    dep.controller.update_flow(flow.flow_id, list(FIG1_NEW_PATH), UpdateType.DUAL)
    dep.run(until=10_000.0)
    assert dep.checker.ok, dep.checker.violations
    _, outcome = dep.forwarding_state.walk(flow.flow_id)
    assert outcome == "delivered"


def test_forged_plausible_label_defeats_local_verification():
    """Documented boundary of the §5 verification model: a corrupted
    UNM that *mimics a valid proof* — here, forging the inherited old
    distance to 0 at exactly the backward gateway — passes every local
    check and admits a transient loop.  This is inherent to
    proof-labeling: a node can only validate label *relations*, not
    whether the neighbour's claimed label is genuine.  (The paper's
    threat model is an inconsistent/buggy controller and message
    reordering, not an in-network forger.)
    """
    from repro.topo.synthetic import FIG1_NEW_PATH, FIG1_OLD_PATH, fig1_topology

    def forge(packet):
        if packet.has_valid("unm"):
            header = packet.header("unm")
            header["old_distance"] = 0            # claim segment id 0
        return packet

    topo = fig1_topology()
    dep = build_p4update_network(topo, params=fast_params(0))
    dep.network.fault_model = FaultModel(
        rng=np.random.default_rng(1),
        corrupt_prob=1.0,
        corruptor=forge,
    )
    flow = Flow.between("v0", "v7", size=1.0, old_path=list(FIG1_OLD_PATH))
    dep.install_flow(flow)
    dep.controller.update_flow(flow.flow_id, list(FIG1_NEW_PATH), UpdateType.DUAL)
    dep.run(until=10_000.0)
    assert any(v.kind == "loop" for v in dep.checker.violations), (
        "the forged segment id should have slipped past local checks"
    )
