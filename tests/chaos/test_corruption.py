"""Corrupted and duplicated messages against the verification layer.

The paper's local verification (Algs. 1 and 2) is what makes faults
survivable: a corrupted UNM must be *rejected* by the receiving
switch's distance/version checks — never applied — and the resulting
alarm plus the §11 watchdogs recover the update.
"""

from repro.chaos.campaign import CORRUPTORS
from repro.core.messages import UpdateType
from repro.harness.build import build_p4update_network
from repro.params import SimParams
from repro.sim.faults import FaultAction, ScriptedFault
from repro.topo.synthetic import FIG1_NEW_PATH, FIG1_OLD_PATH, fig1_topology
from repro.traffic.flows import Flow


def is_unm(message) -> bool:
    has_valid = getattr(message, "has_valid", None)
    return callable(has_valid) and bool(has_valid("unm"))


def corrupted_update_run(corruptor_name, seed=0):
    params = SimParams(seed=seed)
    dep = build_p4update_network(fig1_topology(), params=params)
    flow = Flow.between("v0", "v7", size=1.0, old_path=list(FIG1_OLD_PATH))
    dep.install_flow(flow)
    for switch in dep.switches.values():
        switch.unm_timeout_ms = 200.0
    dep.network.fault_model = ScriptedFault(
        matches=is_unm,
        action=FaultAction.CORRUPT,
        mutate=CORRUPTORS[corruptor_name],
        max_hits=1,
    )
    dep.controller.update_flow(flow.flow_id, list(FIG1_NEW_PATH), UpdateType.DUAL)
    dep.run()
    return dep, flow


def test_distance_skewed_unm_is_rejected_and_update_recovers():
    dep, flow = corrupted_update_run("unm_distance_skew")
    # At least one switch refused the corrupted notification outright.
    rejects = sum(s.program.stats["unm_rejects"] for s in dep.switches.values())
    assert rejects >= 1
    # The rejection raised an alarm UFM at the controller.
    reasons = [u.reason for u in dep.controller.alarms if u.reason]
    assert any("distance" in r.lower() for r in reasons), reasons
    # ... and the watchdog-driven retransmission still finished the job.
    assert dep.controller.update_complete(flow.flow_id)
    walk, outcome = dep.forwarding_state.walk(flow.flow_id)
    assert outcome == "delivered"
    assert walk == list(FIG1_NEW_PATH)
    assert dep.checker.ok, dep.checker.violations[:3]


def test_version_rewound_unm_is_dropped_and_update_recovers():
    dep, flow = corrupted_update_run("unm_version_rewind")
    # The stale notification must not have been applied anywhere: the
    # update still converges to the new path with no violation.
    assert dep.controller.update_complete(flow.flow_id)
    walk, outcome = dep.forwarding_state.walk(flow.flow_id)
    assert outcome == "delivered"
    assert walk == list(FIG1_NEW_PATH)
    assert dep.checker.ok, dep.checker.violations[:3]


def test_corruptor_mutates_copy_not_original():
    class FakePacket:
        def __init__(self):
            self.fields = {"new_distance": 3, "new_version": 2}

        def has_valid(self, name):
            return name == "unm"

        def header(self, name):
            return self.fields

    packet = FakePacket()
    mutated = CORRUPTORS["unm_distance_skew"](packet)
    assert mutated.fields["new_distance"] == 10   # 3 + 7
    # Payloads without a valid UNM header pass through untouched.
    plain = object()
    assert CORRUPTORS["unm_distance_skew"](plain) is plain


def test_duplicated_unms_are_idempotent():
    """20% duplication on every UNM: version checks make re-delivery a
    no-op, so the update completes on the correct path."""
    import numpy as np

    from repro.sim.faults import FaultModel

    params = SimParams(seed=1)
    dep = build_p4update_network(fig1_topology(), params=params)
    flow = Flow.between("v0", "v7", size=1.0, old_path=list(FIG1_OLD_PATH))
    dep.install_flow(flow)
    dep.network.fault_model = FaultModel(
        rng=np.random.default_rng(99),
        duplicate_prob=0.2,
        selector=is_unm,
    )
    dep.controller.update_flow(flow.flow_id, list(FIG1_NEW_PATH), UpdateType.DUAL)
    dep.run()
    assert dep.controller.update_complete(flow.flow_id)
    walk, outcome = dep.forwarding_state.walk(flow.flow_id)
    assert outcome == "delivered"
    assert walk == list(FIG1_NEW_PATH)
    assert dep.checker.ok, dep.checker.violations[:3]
