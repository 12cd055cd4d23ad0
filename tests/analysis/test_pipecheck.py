"""Pipeline static analyzer: toy bad programs + the real P4UpdateProgram."""

from repro.analysis.pipecheck import analyze_pipeline
from repro.p4.switch import P4Switch


class FakeRegisterFile:
    def __init__(self, names):
        self._names = list(names)

    def names(self):
        return list(self._names)


def rules_of(findings):
    return {f.rule for f in findings}


# -- registers ------------------------------------------------------------------


class ReadNeverWritten:
    def __init__(self):
        self.registers = FakeRegisterFile(["egress_port"])

    def ingress(self, ctx, pkt):
        return self.registers["egress_port"].read(0)


def test_register_never_written():
    findings = analyze_pipeline(ReadNeverWritten())
    assert rules_of(findings) == {"register-never-written"}
    assert "egress_port" in findings[0].message


class ControlPlaneWriter:
    """Stage reads; a non-stage method (runtime API) writes."""

    def __init__(self):
        self.registers = FakeRegisterFile(["version"])

    def ingress(self, ctx, pkt):
        return self.registers["version"].read(0)

    def store_version(self, value):
        self.registers["version"].write(0, value)


def test_control_plane_write_satisfies_reads():
    assert analyze_pipeline(ControlPlaneWriter()) == []


class AgentWriter:
    """Stage reads; only the attached switch agent writes."""

    def __init__(self, agent):
        self.registers = FakeRegisterFile(["tag"])
        self.agent = agent

    def ingress(self, ctx, pkt):
        return self.registers["tag"].read(0)


class TagAgent:
    def __init__(self):
        self.program = None

    def flip_tag(self):
        self.program.registers["tag"].write(0, 1)


def test_agent_write_satisfies_reads():
    agent = TagAgent()
    program = AgentWriter(agent)
    agent.program = program
    assert analyze_pipeline(program) == []
    assert rules_of(analyze_pipeline(AgentWriter(None))) == {"register-never-written"}


class HelperWriter:
    """The write happens in a helper the stage calls — reachability."""

    def __init__(self):
        self.registers = FakeRegisterFile(["count"])

    def ingress(self, ctx, pkt):
        self._bump()
        return self.registers["count"].read(0)

    def _bump(self):
        regs = self.registers
        regs["count"].write(0, 1)


def test_helper_reachability_and_alias_tracking():
    assert analyze_pipeline(HelperWriter()) == []


class UndeclaredRegister:
    def __init__(self):
        self.registers = FakeRegisterFile(["real"])

    def ingress(self, ctx, pkt):
        self.registers["real"].write(0, 1)
        return self.registers["tpyo"].read(0)


def test_undeclared_register():
    findings = analyze_pipeline(UndeclaredRegister())
    assert "register-undeclared" in rules_of(findings)
    assert any("tpyo" in f.message for f in findings)


# -- resubmit -------------------------------------------------------------------


class UnboundedResubmitter:
    def __init__(self):
        self.registers = FakeRegisterFile([])

    def ingress(self, ctx, pkt):
        ctx.resubmit()


def test_unbounded_resubmit_flagged_without_cap():
    findings = analyze_pipeline(UnboundedResubmitter())
    assert rules_of(findings) == {"unbounded-resubmit"}


def test_resubmit_ok_when_a_switch_runs_the_program():
    program = UnboundedResubmitter()
    program.agent = P4Switch("s", program)
    assert analyze_pipeline(program) == []


def test_resubmit_ok_with_runtime_cap():
    """The deployed program resubmits; its P4UpdateSwitch, a P4Switch,
    caps the resubmits, and without it the loop is flagged."""
    from repro.harness.build import build_p4update_network
    from repro.params import SimParams
    from repro.topo.synthetic import fig1_topology

    deployment = build_p4update_network(fig1_topology(), params=SimParams(seed=0))
    program = deployment.switches["v0"].program
    assert analyze_pipeline(program) == []
    program.agent = None
    assert "unbounded-resubmit" in rules_of(analyze_pipeline(program))


# -- the real deployed program ----------------------------------------------------


def test_real_p4update_program_is_clean():
    from repro.harness.build import build_p4update_network
    from repro.params import SimParams
    from repro.topo.synthetic import fig1_topology

    deployment = build_p4update_network(fig1_topology(), params=SimParams(seed=0))
    program = deployment.switches["v0"].program
    findings = analyze_pipeline(program)
    assert findings == [], "\n".join(f.format() for f in findings)


def test_real_program_register_accesses_are_still_recognised():
    """The analyzer finds register accesses by the literal
    ``registers["name"].read/write(...)`` spelling; a hot-path rewrite
    that binds arrays to attributes or locals would silently blind it.
    Pinned per method, program and switch agent."""
    from repro.analysis.pipecheck import _class_methods
    from repro.core.dataplane import P4UpdateProgram
    from repro.core.switch import P4UpdateSwitch

    def accesses(cls):
        return {
            name: (sorted(info.reads), sorted(info.writes))
            for name, (info, _, _) in _class_methods(cls).items()
            if info.reads or info.writes
        }

    uib = [
        "counter", "cur_distance", "cur_version",
        "last_type", "old_distance", "old_version",
    ]
    assert accesses(P4UpdateProgram) == {
        "_admit": ([], ["flow_priority"]),
        "applied_version": (["cur_version"], []),
        "_ingress_probe": (["<dynamic>", "ingress_tag", "two_phase"], []),
        "current_port": (["cur_egress_port"], []),
        "pending_version": (["pend_version"], []),
        "set_current_port": ([], ["cur_egress_port"]),
        "set_flow_size": ([], ["flow_size"]),
        "state_of": (uib, []),
        "store_uim": ([], [
            "pend_child_port", "pend_distance", "pend_egress_port",
            "pend_flags", "pend_flow_size", "pend_type", "pend_version",
        ]),
        "write_state": ([], uib),
    }
    assert accesses(P4UpdateSwitch) == {
        "_complete_install": ([], ["<dynamic>", "two_phase"]),
        "_egress_state": (["old_distance"], []),
        "_process_tag_flip": ([], ["ingress_tag"]),
    }
