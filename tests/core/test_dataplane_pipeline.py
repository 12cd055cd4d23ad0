"""Named packet-level cases of the P4Update pipeline program — the §8
mechanisms exercised directly, without a controller.

Each input here is one point of the domain that
``tests/core/test_pipeline_spec.py`` enumerates against the Alg. 1/2
spec; these cases keep the behaviours readable by name."""


from repro.core.dataplane import P4UpdateProgram
from repro.core.messages import UIM, UNMFields, UpdateType, make_cleanup, make_probe
from repro.core.registers import LOCAL_DELIVER_PORT, NO_PORT
from repro.core.verification import apply_sl_state
from repro.p4.pipeline import Pipeline


def uim_for(node_distance=2, version=2, egress_port=4, child_port=7, **kwargs):
    return UIM(
        target="s", flow_id=5, version=version, new_distance=node_distance,
        egress_port=egress_port, flow_size=1.0,
        update_type=UpdateType.SINGLE, child_port=child_port, **kwargs,
    )


def unm_for(version=2, distance=1, layer=1, update_type=UpdateType.SINGLE):
    return UNMFields(
        flow_id=5, layer=layer, update_type=update_type,
        new_version=version, new_distance=distance,
        old_version=version - 1, old_distance=0,
    )


def fresh_program():
    program = P4UpdateProgram(max_flows=16)
    program.set_clone_session(7, 7)
    return program


def installed_program(distance=3, port=2):
    program = fresh_program()
    program.write_state(5, apply_sl_state(1, distance))
    program.set_current_port(5, port)
    program.set_flow_size(5, 1.0)
    return program


# -- probe forwarding -------------------------------------------------------

def test_probe_forwarded_by_register():
    program = installed_program(port=2)
    result = Pipeline(program).process(make_probe(5, seq=0))
    assert result.egress_port == 2


def test_probe_for_unknown_flow_punts_frm():
    program = fresh_program()
    result = Pipeline(program).process(make_probe(99, seq=0))
    assert result.egress_port is None
    assert [p.reason for p in result.punts] == ["frm"]


def test_probe_delivered_at_egress():
    program = installed_program(port=LOCAL_DELIVER_PORT)
    result = Pipeline(program).process(make_probe(5, seq=1))
    assert result.egress_port is None                       # consumed locally
    assert program.stats["probes_delivered"] == 1


def test_probe_ttl_expiry():
    program = installed_program(port=2)
    result = Pipeline(program).process(make_probe(5, seq=0, ttl=1))
    assert result.egress_port is None
    assert program.stats["probes_ttl_expired"] == 1


def test_probe_ttl_decrements():
    program = installed_program(port=2)
    probe = make_probe(5, seq=0, ttl=10)
    Pipeline(program).process(probe)
    assert probe.ttl == 9


# -- UNM handling --------------------------------------------------------------

def test_unm_without_uim_resubmits():
    """§8: 'If the UNM arrives earlier, it needs to wait for UIM' via
    packet resubmission."""
    program = installed_program()
    result = Pipeline(program).process(unm_for().to_packet())
    assert result.resubmit
    assert program.stats["unm_waits"] == 1


def test_unm_with_uim_requests_install():
    program = installed_program(distance=3)
    program.store_uim(uim_for(node_distance=2))
    requests = []

    class AgentStub:
        def installing_version(self, flow_id):
            return 0

        def schedule_install(self, uim, decision, unm_layer):
            requests.append((uim.version, decision.verdict.value, unm_layer))

        def note_probe_seen(self, *a):
            pass

    program.agent = AgentStub()
    result = Pipeline(program).process(unm_for(distance=1).to_packet())
    assert result.egress_port is None
    assert requests == [(2, "update", 1)]


def test_outdated_unm_punts_alarm():
    program = installed_program()
    program.store_uim(uim_for(version=3, node_distance=2))
    result = Pipeline(program).process(unm_for(version=2, distance=1).to_packet())
    assert result.egress_port is None
    assert any(p.reason.startswith("alarm:drop_outdated") for p in result.punts)
    assert program.stats["unm_rejects"] == 1


def test_distance_error_punts_alarm():
    program = installed_program()
    program.store_uim(uim_for(version=2, node_distance=2))
    result = Pipeline(program).process(unm_for(version=2, distance=5).to_packet())
    assert any(p.reason.startswith("alarm:drop_distance") for p in result.punts)


# -- cleanup handling ---------------------------------------------------------------

def test_cleanup_removes_stale_rule_and_propagates():
    program = installed_program(port=2)      # applied version 1
    result = Pipeline(program).process(make_cleanup(5, version=2))
    assert result.egress_port == 2, "cleanup continues along the old rule"
    assert program.current_port(5) == NO_PORT
    assert not program.state_of(5).has_flow()


def test_cleanup_stops_at_current_version():
    program = installed_program(port=2)
    program.write_state(5, apply_sl_state(2, 3))     # already at v2
    result = Pipeline(program).process(make_cleanup(5, version=2))
    assert result.egress_port is None
    assert program.current_port(5) == 2


def test_cleanup_stops_at_pending_uim():
    program = installed_program(port=2)
    program.store_uim(uim_for(version=2))
    result = Pipeline(program).process(make_cleanup(5, version=2))
    assert result.egress_port is None
    assert program.current_port(5) == 2


def test_duplicate_cleanup_harmless():
    program = installed_program(port=2)
    pipeline = Pipeline(program)
    pipeline.process(make_cleanup(5, version=2))
    result = pipeline.process(make_cleanup(5, version=2))
    assert result.egress_port is None                      # no port to continue on
