"""Unit tests for the message-overhead analysis helpers."""


from repro.harness.analysis import MessageStats, _type_of, count_messages
from repro.sim.trace import KIND_MSG_SEND, Trace


def test_type_of_plain_messages():
    assert _type_of("UIM(to=v1 flow=1 v=2 dn=3 type=SINGLE)") == "UIM"
    assert _type_of("Rule(to=v1 flow=1 r=2)") == "Rule"
    assert _type_of("Ack(from=v1 flow=1 r=2)") == "Ack"
    assert _type_of("GTM(flow=1 seg=0)") == "GTM"


def test_type_of_p4_packets_by_header():
    assert _type_of("Packet#12[unm]") == "UNM"
    assert _type_of("Packet#13[cleanup]") == "Cleanup"
    assert _type_of("Packet#14[probe]") == "Probe"


def test_count_messages_tallies_by_type():
    trace = Trace()
    for desc in ("UIM(x)", "UIM(y)", "Packet#1[unm]", "Ack(z)"):
        trace.record(1.0, KIND_MSG_SEND, "n", message=desc)
    trace.record(1.0, "msg_recv", "n", message="UIM(x)")  # recv ignored
    stats = count_messages(trace)
    assert stats.by_type == {"UIM": 2, "UNM": 1, "Ack": 1}


def test_plane_split():
    stats = MessageStats(by_type={"UIM": 3, "UNM": 5, "Ack": 2, "Probe": 9})
    assert stats.control_plane == 5
    assert stats.data_plane == 14
    assert stats.total == 19


def test_row_formatting():
    stats = MessageStats(by_type={"UIM": 1})
    row = stats.row("sys")
    assert "control=    1" in row


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
    assert stats.by_type.get("UNM") == 3
    assert stats.by_type.get("UFM") == 1
