"""P4Update's data-plane pipeline program (paper §8, App. B).

The program handles two packet classes:

* **probe/data packets** — forwarded by reading the flow's
  ``cur_egress_port`` register (the paper feeds the register value as
  the input parameter of the forwarding table); unknown flows trigger
  an FRM punt at the first switch that sees them;
* **UNM packets** — run through the SL/DL verification algorithms
  against the UIB registers.  ``WAIT`` outcomes use packet
  resubmission (P4 has no data-plane timer, §8); accepted updates
  request a timed rule install through the switch agent (modelling the
  asynchronous completion of the register/table write, which is where
  the paper injects its per-node update delays); ``PASS_ON`` outcomes
  update the inherited old distance in-pipeline and clone the UNM
  upstream through the port-based clone-session table.

The congestion extension (§7.4, App. A.2) runs at admission time:
after the topological checks pass, the node checks the remaining
capacity of the new egress port and defers (resubmits) the UNM when
the local scheduler says the flow must wait.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.messages import UIM, UNMFields, UpdateType
from repro.core.registers import (
    DEFAULT_MAX_FLOWS,
    FLAG_FLOW_EGRESS,
    FLAG_GATEWAY,
    FLAG_INGRESS,
    FLAG_SEGMENT_EGRESS,
    FLOW_SIZE_SCALE,
    LOCAL_DELIVER_PORT,
    NO_PORT,
    FlowIndexAllocator,
    define_uib,
)
from repro.core.scheduler import CongestionScheduler
from repro.core.verification import (
    NodeFlowState,
    Verdict,
    verify_dl,
)
from repro.p4.pipeline import PipelineContext, PipelineProgram

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.switch import P4UpdateSwitch


# last_type register value -> UpdateType (the enum call is a Python call).
_UPDATE_TYPES = tuple(UpdateType)


class P4UpdateProgram(PipelineProgram):
    """The P4-16 program of the artifact, as a behavioural pipeline."""

    def __init__(self, max_flows: int = DEFAULT_MAX_FLOWS) -> None:
        super().__init__()
        define_uib(self.registers, max_flows)
        self.flow_index = FlowIndexAllocator(max_flows)
        self.scheduler = CongestionScheduler()
        # Pending UIM objects by flow id: verification reads these.  Of
        # the pend_* registers only pend_version is read back
        # (pending_version); the other six are a write-only mirror of
        # Table 1's new_* tier.
        self.pending_uim: dict[int, UIM] = {}
        # Exact (unquantized) per-flow sizes, the only copy ever read;
        # set_flow_size writes it and the flow_size register (a
        # write-only scaled-int mirror) together.
        self._flow_sizes: dict[int, float] = {}
        # Set by the switch agent; provides timed installs and UFMs.
        self.agent: Optional["P4UpdateSwitch"] = None
        # Congestion-freedom enforcement toggle (single-flow scenarios
        # assume sufficient capacity, §9.1).
        self.congestion_aware = True
        # App. C extension: allow dual-layer after dual-layer.
        self.allow_consecutive_dual = False
        self.stats = {
            "probes_forwarded": 0,
            "probes_delivered": 0,
            "probes_blackholed": 0,
            "probes_ttl_expired": 0,
            "unm_processed": 0,
            "unm_waits": 0,
            "unm_rejects": 0,
            "capacity_deferrals": 0,
        }

    # -- register access helpers ------------------------------------------------

    def state_of(self, flow_id: int) -> NodeFlowState:
        """The whole applied UIB row: what Alg. 2 compares and what a
        UNM carries.  A check on one field reads that register alone
        (:meth:`applied_version`, :meth:`pending_version`)."""
        idx = self.flow_index.lookup(flow_id)
        if idx is None:
            return NodeFlowState()
        regs = self.registers
        return NodeFlowState(
            regs["cur_version"].read(idx),
            regs["cur_distance"].read(idx),
            regs["old_version"].read(idx),
            regs["old_distance"].read(idx),
            regs["counter"].read(idx),
            _UPDATE_TYPES[regs["last_type"].read(idx)],
        )

    def applied_version(self, flow_id: int) -> int:
        """V_n(v): 0 for a flow this switch has never carried."""
        idx = self.flow_index.lookup(flow_id)
        return 0 if idx is None else self.registers["cur_version"].read(idx)

    def write_state(self, flow_id: int, state: NodeFlowState) -> None:
        idx = self.flow_index.index_of(flow_id)
        regs = self.registers
        regs["cur_version"].write(idx, state.new_version)
        regs["cur_distance"].write(idx, state.new_distance)
        regs["old_version"].write(idx, state.old_version)
        regs["old_distance"].write(idx, state.old_distance)
        regs["counter"].write(idx, state.counter)
        regs["last_type"].write(idx, int(state.update_type))

    def current_port(self, flow_id: int) -> int:
        idx = self.flow_index.lookup(flow_id)
        return NO_PORT if idx is None else self.registers["cur_egress_port"].read(idx)

    def set_current_port(self, flow_id: int, port: int) -> None:
        idx = self.flow_index.index_of(flow_id)
        self.registers["cur_egress_port"].write(idx, port)

    def store_uim(self, uim: UIM) -> None:
        """Write the pending tier of the UIB from a UIM."""
        idx = self.flow_index.index_of(uim.flow_id)
        regs = self.registers
        regs["pend_version"].write(idx, uim.version)
        regs["pend_distance"].write(idx, uim.new_distance)
        regs["pend_egress_port"].write(idx, uim.egress_port)
        regs["pend_type"].write(idx, int(uim.update_type))
        child = uim.child_port if uim.child_port is not None else NO_PORT
        regs["pend_child_port"].write(idx, child)
        flags = (
            (FLAG_FLOW_EGRESS if uim.is_flow_egress else 0)
            | (FLAG_SEGMENT_EGRESS if uim.is_segment_egress else 0)
            | (FLAG_INGRESS if uim.is_ingress else 0)
            | (FLAG_GATEWAY if uim.is_gateway else 0)
        )
        regs["pend_flags"].write(idx, flags)
        regs["pend_flow_size"].write(idx, int(uim.flow_size * FLOW_SIZE_SCALE))
        self.pending_uim[uim.flow_id] = uim

    def pending_version(self, flow_id: int) -> int:
        idx = self.flow_index.lookup(flow_id)
        return 0 if idx is None else self.registers["pend_version"].read(idx)

    def highest_uim(self, flow_id: int) -> Optional[UIM]:
        return self.pending_uim.get(flow_id)

    def flow_size_of(self, flow_id: int) -> float:
        """Exact flow size; the register holds the scaled-int mirror."""
        return self._flow_sizes.get(flow_id, 0.0)

    def set_flow_size(self, flow_id: int, size: float) -> None:
        idx = self.flow_index.index_of(flow_id)
        self.registers["flow_size"].write(idx, int(size * FLOW_SIZE_SCALE))
        self._flow_sizes[flow_id] = size

    # -- pipeline control blocks ---------------------------------------------------

    def ingress(self, ctx: PipelineContext) -> None:
        packet = ctx.packet
        if packet.has_valid("unm"):
            self._ingress_unm(ctx)
        elif packet.has_valid("probe"):
            self._ingress_probe(ctx)
        elif packet.has_valid("cleanup"):
            self._ingress_cleanup(ctx)
        else:
            ctx.drop()

    # -- rule cleanup (§11) ----------------------------------------------------

    def _ingress_cleanup(self, ctx: PipelineContext) -> None:
        """A downstream-abandoned node removes its rule, frees its
        capacity reservation and propagates the cleanup along its own
        (old) next hop."""
        header = ctx.packet.header("cleanup")
        flow_id = header["flow_id"]
        version = header["version"]
        if max(self.applied_version(flow_id), self.pending_version(flow_id)) >= version:
            # This node is part of the new configuration (applied or a
            # UIM is pending): its rule may be serving the transient
            # mixed path — stop the cleanup here.
            ctx.drop()
            return
        old_port = self.current_port(flow_id)
        if old_port in (NO_PORT, LOCAL_DELIVER_PORT):
            ctx.drop()
            return
        # Remove the rule and reset the flow state (the node becomes
        # fresh; a later update re-adds it through the inside branch).
        self.set_current_port(flow_id, NO_PORT)
        self.write_state(flow_id, NodeFlowState())
        self.scheduler.release(flow_id)
        if self.agent is not None:
            self.agent.note_rule_removed(flow_id)
        ctx.forward(old_port)

    # -- probe forwarding --------------------------------------------------------------

    def _ingress_probe(self, ctx: PipelineContext) -> None:
        packet = ctx.packet
        header = packet.header("probe")
        flow_id = header["flow_id"]
        if self.agent is not None:
            self.agent.note_probe_seen(flow_id, packet)
        if self.applied_version(flow_id) == 0:
            # Unknown flow: report it (FRM) and drop (App. B).
            ctx.to_cpu("frm")
            self.stats["probes_blackholed"] += 1
            ctx.drop()
            return
        idx = self.flow_index.index_of(flow_id)
        if self.registers["two_phase"].read(idx):
            # §11 2-phase commit: the ingress stamps the active tag;
            # everyone forwards by the packet's tag.
            if not header["tagged"]:
                header["tag"] = self.registers["ingress_tag"].read(idx)
                header["tagged"] = 1
            tag_array = "port_tag1" if header["tag"] else "port_tag0"
            port = self.registers[tag_array].read(idx)
            if port == NO_PORT:
                port = self.current_port(flow_id)
        else:
            port = self.current_port(flow_id)
        if port == LOCAL_DELIVER_PORT:
            self.stats["probes_delivered"] += 1
            if self.agent is not None:
                self.agent.note_probe_delivered(flow_id, packet)
            ctx.drop()
            return
        if port == NO_PORT:
            self.stats["probes_blackholed"] += 1
            ctx.drop()
            return
        if packet.ttl <= 1:
            self.stats["probes_ttl_expired"] += 1
            if self.agent is not None:
                self.agent.note_probe_ttl_expired(flow_id, packet)
            ctx.drop()
            return
        packet.ttl -= 1
        self.stats["probes_forwarded"] += 1
        ctx.forward(port)

    # -- UNM verification ------------------------------------------------------------------

    def _ingress_unm(self, ctx: PipelineContext) -> None:
        self.stats["unm_processed"] += 1
        unm = UNMFields.from_packet(ctx.packet)
        if self.agent is not None and ctx.packet.meta.get("uim_stack"):
            # §11 compact updates: the UNM carries our UIM — pop it
            # before verification.
            self.agent.adopt_piggyback(ctx.packet, unm)
        uim = self.highest_uim(unm.flow_id)
        state = self.state_of(unm.flow_id)
        decision = verify_dl(
            uim, unm, state,
            allow_consecutive_dual=self.allow_consecutive_dual,
        )
        agent = self.agent
        obs = getattr(agent, "obs", None)       # test stubs have no obs
        if obs is not None and obs.enabled:
            obs.metrics.family("counter", "unm_verdicts", "node", "verdict")[
                agent.name, decision.verdict.value
            ].inc()

        if decision.verdict is Verdict.WAIT:
            self.stats["unm_waits"] += 1
            ctx.resubmit()
            return

        if decision.inform_controller:
            self.stats["unm_rejects"] += 1
            ctx.to_cpu(f"alarm:{decision.verdict.value}:{decision.reason}")
            ctx.drop()
            return

        if decision.verdict in (Verdict.REJECT_STAY, Verdict.IGNORE):
            ctx.drop()
            return

        assert uim is not None and decision.new_state is not None

        if decision.verdict is Verdict.PASS_ON:
            # Register write + in-pipeline clone upstream; rules unchanged.
            self.write_state(unm.flow_id, decision.new_state)
            if uim.is_ingress and unm.layer == 1:
                # The first-layer UNM reached the flow ingress after it
                # had already updated (via a second-layer UNM): the
                # update is complete — transform it into a UFM (§8).
                ctx.to_cpu("ufm_success")
            elif not (uim.is_gateway and unm.layer == 2):
                # Second-layer UNMs stop at gateway nodes (§8).
                self._clone_unm(ctx, uim, decision.new_state, unm.layer)
            ctx.drop()
            return

        # Already at this version (e.g. a §11 re-triggered notification
        # after the original was lost downstream of us): nothing to
        # install — relay the notification upstream / emit the UFM.
        if state.new_version >= unm.new_version:
            if uim.is_ingress and unm.layer == 1:
                ctx.to_cpu("ufm_success")
            elif not (uim.is_gateway and unm.layer == 2):
                refreshed = self.state_of(unm.flow_id)
                self._clone_unm(ctx, uim, refreshed, unm.layer)
            ctx.drop()
            return

        # Verdict.UPDATE: the topological checks passed.  If an install
        # for this version is already in flight (this UNM is a second
        # notification racing the register write), wait and re-verify —
        # once the install lands the pass-on branch will propagate any
        # newly inherited old distance upstream.
        if (
            self.agent is not None
            and self.agent.installing_version(unm.flow_id) >= unm.new_version
        ):
            ctx.resubmit()
            return

        # Congestion check (App. A.2) against the new egress port.
        if not self._admit(uim):
            self.stats["capacity_deferrals"] += 1
            ctx.resubmit()
            return

        if self.agent is not None:
            self.agent.schedule_install(uim, decision, unm_layer=unm.layer)
        ctx.drop()

    def _admit(self, uim: UIM) -> bool:
        """Capacity admission for the pending move (True = go ahead)."""
        if not self.congestion_aware:
            return True
        if uim.stage_tag is not None:
            # Staged (2PC) rules carry no traffic until the tag flips.
            return True
        if uim.egress_port == LOCAL_DELIVER_PORT:
            return True  # egress node: no outgoing capacity needed
        admitted = self.scheduler.try_move(
            uim.flow_id, uim.egress_port, uim.flow_size
        )
        idx = self.flow_index.index_of(uim.flow_id)
        self.registers["flow_priority"].write(
            idx, int(self.scheduler.priority(uim.flow_id))
        )
        return admitted

    def _clone_unm(
        self, ctx: PipelineContext, uim: UIM, state: NodeFlowState, layer: int
    ) -> None:
        """Clone an updated UNM to the child via the port-based session."""
        child = uim.child_port
        if child is None:
            return
        clone = ctx.clone_to_session(child)
        header = clone.header("unm")
        header["new_version"] = state.new_version
        header["new_distance"] = state.new_distance
        header["old_version"] = state.old_version
        header["old_distance"] = state.old_distance
        header["counter"] = state.counter
        header["layer"] = layer
        header["update_type"] = int(UpdateType.DUAL)

    def build_unm(self, flow_id: int, layer: int, update_type: UpdateType) -> UNMFields:
        """UNM carrying this node's current state (used after installs
        and for segment-egress origination)."""
        state = self.state_of(flow_id)
        return UNMFields(
            flow_id=flow_id,
            layer=layer,
            update_type=update_type,
            new_version=state.new_version,
            new_distance=state.new_distance,
            old_version=state.old_version,
            old_distance=state.old_distance,
            counter=state.counter,
        )

    def build_pending_unm(self, uim: UIM, layer: int) -> UNMFields:
        """UNM from a segment-egress gateway that has *not* applied yet:
        pending new state + applied old state (paper App. B)."""
        state = self.state_of(uim.flow_id)
        return UNMFields(
            flow_id=uim.flow_id,
            layer=layer,
            update_type=uim.update_type,
            new_version=uim.version,
            new_distance=uim.new_distance,
            old_version=state.new_version,
            old_distance=state.old_distance,
            counter=state.counter,
        )
