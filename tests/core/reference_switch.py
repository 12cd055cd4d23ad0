"""The switch agent's single-field checks as full-row reads — the reference.

``ReferenceSwitch`` and ``ReferenceProgram`` hold, verbatim, the bodies
``P4UpdateSwitch`` and ``P4UpdateProgram`` had when every version check
went through ``state_of`` (six register reads and a ``NodeFlowState``)
to compare one field: ``_process_uim``, ``_originate_pending_unm``,
``_egress_state``, ``_complete_install``, ``adopt_piggyback``,
``_check_unm_timeout`` on the agent and ``_ingress_cleanup``,
``_ingress_probe`` on the program.  What they do to the trace, the
registers, the alarms and the UFMs *is* the specification;
``test_switch_single_register.py`` swaps them in
(``tests.reference_scenarios.swap_bodies``) and holds the shipped bodies
equal to them, event by event.
"""

from __future__ import annotations

from repro.core.dataplane import P4UpdateProgram
from repro.core.messages import UFM, UIM, UNMFields, UpdateType, make_cleanup
from repro.core.registers import LOCAL_DELIVER_PORT, NO_PORT
from repro.core.switch import P4UpdateSwitch
from repro.core.verification import (
    Decision,
    NodeFlowState,
    Verdict,
    apply_sl_state,
)
from repro.p4.packet import Packet
from repro.p4.pipeline import PipelineContext


class ReferenceSwitch(P4UpdateSwitch):
    def _process_uim(self, uim: UIM) -> None:
        program = self.program
        state = program.state_of(uim.flow_id)
        if uim.version == state.new_version and (
            uim.is_flow_egress or uim.is_segment_egress
        ):
            # §11 re-trigger: the controller resent the UIM after a
            # reported UNM loss — regenerate the notification.
            wait = self.params.unm_generation_delay.sample(self.rng)
            if uim.is_flow_egress:
                unm = program.build_unm(uim.flow_id, layer=1, update_type=uim.update_type)
                self.engine.schedule(wait, self._emit_unm_for, unm, uim)
            else:
                unm = program.build_unm(uim.flow_id, layer=2, update_type=uim.update_type)
                self.engine.schedule(wait, self._emit_unm_for, unm, uim)
            return
        if uim.version <= state.new_version:
            self._send_alarm(
                uim.flow_id, uim.version,
                f"UIM version {uim.version} not newer than applied {state.new_version}",
            )
            return
        if program.flow_index.known(uim.flow_id):
            known_size = program.flow_size_of(uim.flow_id)
            if known_size > 0 and abs(known_size - uim.flow_size) > 1e-9:
                # App. A.2: the flow size must stay identical; discard.
                self._send_alarm(
                    uim.flow_id, uim.version,
                    f"flow size changed {known_size} -> {uim.flow_size}",
                )
                return
        if uim.version <= program.pending_version(uim.flow_id):
            if (
                uim.version == program.pending_version(uim.flow_id)
                and uim.update_type is UpdateType.DUAL
                and uim.is_segment_egress
            ):
                # §11 re-trigger at a segment egress that has not yet
                # applied: regenerate the second-layer UNM.
                wait = self.params.unm_generation_delay.sample(self.rng)
                self.engine.schedule(wait, self._originate_pending_unm, uim)
            return  # duplicate / older than the pending indication
        program.store_uim(uim)
        if program.flow_size_of(uim.flow_id) == 0:
            program.set_flow_size(uim.flow_id, uim.flow_size)
        if uim.piggyback:
            self._piggyback[(uim.flow_id, uim.version)] = tuple(uim.piggyback)
        if self.unm_timeout_ms > 0 and not uim.is_flow_egress:
            self.engine.schedule(self.unm_timeout_ms, self._check_unm_timeout, uim, 0)

        if uim.is_flow_egress:
            # §7.1: the egress node applies the new configuration
            # directly, then notifies its child.
            decision = Decision(
                verdict=Verdict.UPDATE,
                new_state=self._egress_state(uim),
                branch="egress",
            )
            self.schedule_install(uim, decision, unm_layer=1)
        elif uim.update_type is UpdateType.DUAL and uim.is_segment_egress:
            # Segment-egress gateway: originate the second-layer UNM,
            # carrying pending-new + applied-old state.  Origination
            # clones an ongoing packet of the flow (§8), so it waits
            # for the next one to pass.
            wait = self.params.unm_generation_delay.sample(self.rng)
            self.engine.schedule(wait, self._originate_pending_unm, uim)

    def _originate_pending_unm(self, uim: UIM) -> None:
        if self.program.state_of(uim.flow_id).new_version >= uim.version:
            return  # already updated meanwhile; the chain is running
        unm = self.program.build_pending_unm(uim, layer=2)
        self._emit_unm_for(unm, uim)

    def _egress_state(self, uim: UIM) -> NodeFlowState:
        previous = self.program.state_of(uim.flow_id)
        if uim.update_type is UpdateType.DUAL:
            return NodeFlowState(
                new_version=uim.version,
                new_distance=0,
                old_version=uim.version - 1,
                old_distance=previous.old_distance,
                counter=0,
                update_type=UpdateType.DUAL,
            )
        return apply_sl_state(uim.version, 0)

    def _complete_install(self, uim: UIM, decision: Decision, unm_layer: int) -> None:
        # Superseded installs must not abort the newer admission's
        # reservation — try_move already rolled back the older transit
        # when the newer target was admitted.
        if self._installing.get(uim.flow_id, 0) != uim.version:
            return  # superseded by a newer update
        state = self.program.state_of(uim.flow_id)
        if state.new_version >= uim.version:
            return  # already at this or a newer version
        assert decision.new_state is not None
        if uim.stage_tag is not None:
            # §11 2-phase commit: stage the rule under the new tag; the
            # live (old-tag) forwarding is untouched until the ingress
            # flips, so no cleanup and no capacity hand-over here.
            idx = self.program.flow_index.index_of(uim.flow_id)
            tag_array = "port_tag1" if uim.stage_tag else "port_tag0"
            self.program.registers[tag_array].write(idx, uim.egress_port)
            self.program.registers["two_phase"].write(idx, 1)
            self.program.write_state(uim.flow_id, decision.new_state)
            self.installs_completed += 1
            if self.network is not None:
                self.network.trace.record(
                    self.now, "rule_staged", self.name,
                    flow=uim.flow_id, tag=uim.stage_tag, port=uim.egress_port,
                )
            if uim.is_ingress and unm_layer == 1:
                self._send_ufm_success(uim)
            elif not (decision.branch == "gateway" and unm_layer == 2):
                unm = self.program.build_unm(
                    uim.flow_id, layer=unm_layer, update_type=uim.update_type
                )
                if decision.branch == "egress":
                    wait = self.params.unm_generation_delay.sample(self.rng)
                    self.engine.schedule(wait, self._emit_unm_for, unm, uim)
                else:
                    self._emit_unm_for(unm, uim)
            return
        old_port = self.program.current_port(uim.flow_id)
        self.program.write_state(uim.flow_id, decision.new_state)
        self.program.set_current_port(uim.flow_id, uim.egress_port)
        if self.program.congestion_aware and uim.egress_port != LOCAL_DELIVER_PORT:
            # Traffic has moved: release the old link's reservation.
            self.program.scheduler.commit_move(uim.flow_id)
        self.installs_completed += 1
        if self.obs.enabled:
            self.obs.metrics.counter("rule_installs", node=self.name).inc()
        self._mirror_rule(uim.flow_id, uim.egress_port, record=True)
        if old_port not in (NO_PORT, LOCAL_DELIVER_PORT) and old_port != uim.egress_port:
            # §11 rule cleanup: tell the abandoned old parent that no
            # further packets will arrive on this link.
            self.send(old_port, make_cleanup(
                uim.flow_id, uim.version, self.network.take_packet_id()
            ))

        # Coordination after the install (paper §7.2, §8).
        if uim.is_ingress and unm_layer == 1:
            self._send_ufm_success(uim)
        elif uim.is_ingress:
            # Updated via a second-layer UNM; the first-layer UNM will
            # still arrive and trigger the UFM via pass-on handling.
            pass
        elif not (decision.branch == "gateway" and unm_layer == 2):
            # Second-layer UNMs stop at gateways (§8); everything else
            # keeps propagating upstream.  The flow egress *originates*
            # its UNM by cloning an ongoing packet (wait for one);
            # downstream forwarders clone the received UNM (no wait).
            unm = self.program.build_unm(
                uim.flow_id, layer=unm_layer, update_type=uim.update_type
            )
            if decision.branch == "egress":
                wait = self.params.unm_generation_delay.sample(self.rng)
                self.engine.schedule(wait, self._emit_unm_for, unm, uim)
            else:
                self._emit_unm_for(unm, uim)

    def adopt_piggyback(self, packet: Packet, unm: UNMFields) -> None:
        """§11 compact updates: pop this node's UIM from the UNM's
        header stack and process it as if delivered by the controller."""
        stack = packet.meta.get("uim_stack") or ()
        if not stack:
            return
        mine = stack[0]
        if mine.target != self.name or mine.version != unm.new_version:
            return
        self._piggyback[(mine.flow_id, mine.version)] = tuple(stack[1:])
        packet.meta["uim_stack"] = ()
        already = max(
            self.program.state_of(mine.flow_id).new_version,
            self.program.pending_version(mine.flow_id),
        )
        if already >= mine.version:
            return  # duplicate delivery on a later notification
        self._process_uim(mine)

    def _check_unm_timeout(self, uim: UIM, checks: int) -> None:
        """§11: "the gateway nodes would periodically monitor the
        arrival of UNM" — no notification within the window means it
        was lost; alert the controller and keep watching."""
        state = self.program.state_of(uim.flow_id)
        if state.new_version >= uim.version:
            return  # the update arrived after all
        if self.program.pending_version(uim.flow_id) > uim.version:
            return  # superseded by a newer update
        self.send_control(
            UFM(
                flow_id=uim.flow_id,
                version=uim.version,
                reporter=self.name,
                status="alarm",
                reason="unm_timeout",
            )
        )
        if checks + 1 < self.MAX_WATCHDOG_CHECKS:
            self.engine.schedule(
                self.unm_timeout_ms, self._check_unm_timeout, uim, checks + 1
            )


class ReferenceProgram(P4UpdateProgram):
    def _ingress_cleanup(self, ctx: PipelineContext) -> None:
        """A downstream-abandoned node removes its rule, frees its
        capacity reservation and propagates the cleanup along its own
        (old) next hop."""
        header = ctx.packet.header("cleanup")
        flow_id = header["flow_id"]
        version = header["version"]
        state = self.state_of(flow_id)
        if max(state.new_version, self.pending_version(flow_id)) >= version:
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

    def _ingress_probe(self, ctx: PipelineContext) -> None:
        packet = ctx.packet
        header = packet.header("probe")
        flow_id = header["flow_id"]
        if self.agent is not None:
            self.agent.note_probe_seen(flow_id, packet)
        state = self.state_of(flow_id)
        if not state.has_flow():
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
