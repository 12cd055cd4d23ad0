"""Unit tests for the message-overhead analysis helpers."""


import pytest

from repro.harness.analysis import count_messages
from repro.obs import make_obs
from repro.sim.trace import KIND_MSG_DROP, KIND_MSG_RECV, KIND_MSG_SEND, Trace
from tests.reference_scenarios import SCENARIOS


def _hand_recorded_trace() -> Trace:
    trace = Trace()
    trace.record(1.0, KIND_MSG_SEND, "c", message="UIM(x)", type="UIM")
    trace.record(1.0, KIND_MSG_SEND, "c", message="UIM(y)", type="UIM")
    trace.record(2.0, KIND_MSG_SEND, "v1", message="Packet#1[unm]", port=2, type="unm")
    trace.record(2.0, KIND_MSG_SEND, "v1", message="Packet#2[cleanup]", port=1, type="cleanup")
    # Control-channel sends carry no ``port``, whatever their tag says.
    trace.record(3.0, KIND_MSG_SEND, "v2", message="Seq#4(UIM(z))", type="Sequenced")
    trace.record(3.0, KIND_MSG_SEND, "v2", message="ControlAck(seq=4 from=v2)", type="ControlAck")
    trace.record(4.0, KIND_MSG_RECV, "v1", message="UIM(x)", type="UIM")  # not a send
    trace.record(4.0, KIND_MSG_DROP, "v1", message="UIM(y)", type="UIM")  # not a send
    return trace


def test_count_messages_tallies_by_type():
    """The type is the record's ``type`` key, whatever its tag says."""
    stats = count_messages(_hand_recorded_trace())
    assert stats.by_type == {
        "UIM": 2, "unm": 1, "cleanup": 1, "Sequenced": 1, "ControlAck": 1,
    }


def test_plane_split():
    """A send is on the data plane iff its record carries ``port``."""
    stats = count_messages(_hand_recorded_trace())
    assert (stats.control_plane, stats.data_plane, stats.total) == (4, 2, 6)


def _planes_sent(obs) -> tuple[float, float]:
    sent = {"control": 0, "data": 0}
    for name, labels, cell in obs.metrics:
        if name == "messages_sent":
            sent[labels["plane"]] += cell.value
    return sent["control"], sent["data"]


@pytest.mark.parametrize("name, control_fault_drops", [
    ("serve_chaos_closed", 0),
    ("serve_forced_dl", 0),
    ("link_cut_in_flight", 0),
    # The documented trap: the network counts a control-plane fault drop
    # as sent, although no ``msg_send`` record names it.
    ("faults_distance_skew", 63),
])
def test_count_messages_agrees_with_the_messages_sent_view(name, control_fault_drops):
    obs = make_obs()
    outcome = SCENARIOS[name](obs)
    trace = Trace()
    for event in outcome["trace"]:
        trace.record(event.time, event.kind, event.node, **event.detail)
    stats = count_messages(trace)
    control, data = _planes_sent(obs)
    assert (stats.control_plane + control_fault_drops, stats.data_plane) == (control, data)
    assert stats.total == stats.control_plane + stats.data_plane
    control_drops = sum(
        1 for event in trace.of_kind(KIND_MSG_DROP)
        if "reason" not in event.detail and "dest" not in event.detail
    )
    assert control_drops == control_fault_drops


def test_end_to_end_counts_match_protocol():
    """SL on a 4-node line: 4 UIMs, 3 UNM hops, 1 UFM."""
    from repro.core.messages import UpdateType
    from repro.harness.build import build_p4update_network
    from repro.params import SimParams
    from repro.topo import ring_topology
    from repro.traffic.flows import Flow

    topo = ring_topology(6, latency_ms=1.0)
    topo.set_controller("n0")
    dep = build_p4update_network(topo, params=SimParams(seed=0))
    flow = Flow.between("n0", "n3", size=1.0, old_path=["n0", "n1", "n2", "n3"])
    dep.install_flow(flow)
    dep.controller.update_flow(flow.flow_id, ["n0", "n5", "n4", "n3"], UpdateType.SINGLE)
    dep.run()
    stats = count_messages(dep.network.trace)
    assert stats.by_type.get("UIM") == 4
    assert stats.by_type.get("unm") == 3
    assert stats.by_type.get("UFM") == 1
