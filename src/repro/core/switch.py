"""The P4Update switch agent.

Ties the :class:`~repro.core.dataplane.P4UpdateProgram` to the event
simulator: it receives UIMs over the control channel, performs the
timed rule installs the pipeline requests, originates UNMs (first
layer at the flow egress, second layer at segment-egress gateways) and
converts ingress-side completions and verification alarms into UFMs.

The agent also mirrors every applied rule into the shared
:class:`~repro.consistency.state.ForwardingState` and the trace, which
is what the consistency checker and the benches observe.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.consistency.state import ForwardingState
from repro.core.dataplane import P4UpdateProgram
from repro.core.messages import (
    FRM,
    UFM,
    UIM,
    ControlAck,
    PortStatus,
    Sequenced,
    TagFlip,
    UNMFields,
    UpdateType,
    make_cleanup,
)
from repro.p4.pipeline import CpuPunt, Pipeline
from repro.core.registers import LOCAL_DELIVER_PORT, NO_PORT
from repro.core.verification import Decision, NodeFlowState, Verdict, apply_sl_state
from repro.p4.packet import Packet
from repro.p4.switch import P4Switch
from repro.params import SimParams
from repro.sim.trace import (
    KIND_PACKET_DELIVERED,
    KIND_PACKET_LOST,
    KIND_PACKET_RECV,
    KIND_RULE_CHANGE,
    KIND_VERIFY_FAIL,
)


class P4UpdateSwitch(P4Switch):
    """One P4Update-capable switch."""

    def __init__(
        self,
        name: str,
        params: Optional[SimParams] = None,
        rng: Optional[np.random.Generator] = None,
        max_flows: int = 4096,
        forwarding_state: Optional[ForwardingState] = None,
    ) -> None:
        program = P4UpdateProgram(max_flows=max_flows)
        super().__init__(name, program, params=params, rng=rng)
        self.program: P4UpdateProgram = program
        program.agent = self
        self.forwarding_state = forwarding_state
        self.on_punt = self._handle_punt
        self._max_flows = max_flows
        # flow_id -> version currently being installed (supersession
        # guard for fast-forward: a newer admitted install wins).
        self._installing: dict[int, int] = {}
        self.alarms: list[UFM] = []
        self.installs_completed = 0
        # §11 failure handling: when set (>0 ms), a switch that holds a
        # pending UIM but sees no UNM within the window alerts the
        # controller so the update can be re-triggered.
        self.unm_timeout_ms: float = 0.0
        # §11 compact updates: remaining piggybacked UIMs to forward
        # upstream on this flow-version's UNM, keyed (flow, version).
        self._piggyback: dict[tuple[int, int], tuple] = {}
        # Reliable control delivery (repro.chaos): sequence numbers of
        # Sequenced envelopes already processed, for receiver-side
        # dedup.  Survives crashes — the dedup window models sequence
        # state kept by the (restarting) switch agent, and keeping it
        # prevents a replayed retransmission from double-applying.
        self._seen_control_seqs: set[int] = set()

    # -- wiring -------------------------------------------------------------

    def configure_ports(self) -> None:
        """Identity clone sessions for every attached port and port
        capacities from link attributes.  Call after links are added."""
        if self.network is None:
            raise RuntimeError("attach the switch to a network first")
        for link in self.network.links:
            if self.name not in (link.node_a, link.node_b):
                continue
            port = link.port_a if link.node_a == self.name else link.port_b
            self.program.set_clone_session(port, port)
            self.program.scheduler.set_port_capacity(port, link.capacity)

    # -- initial deployment ------------------------------------------------------

    def install_initial_flow(
        self, flow_id: int, distance: int, egress_port: int, size: float
    ) -> None:
        """Bootstrap version-1 state (initial deployment, no timing)."""
        state = apply_sl_state(version=1, distance=distance)
        self.program.write_state(flow_id, state)
        self.program.set_current_port(flow_id, egress_port)
        self.program.set_flow_size(flow_id, size)
        if egress_port != LOCAL_DELIVER_PORT:
            self.program.scheduler.occupy(flow_id, egress_port, size)
        self._mirror_rule(flow_id, egress_port, record=False)

    # -- control plane messages -----------------------------------------------------

    def handle_control(self, message: Any) -> None:
        if isinstance(message, Sequenced):
            # Reliable delivery (repro.chaos): always ack, process the
            # inner message at most once.  Dedup here makes duplicated
            # and retransmitted control messages safe end-to-end.
            self.send_control(ControlAck(seq=message.seq, reporter=self.name))
            if message.seq in self._seen_control_seqs:
                self.obs.count("duplicate_control_suppressed", node=self.name)
                return
            self._seen_control_seqs.add(message.seq)
            message = message.inner
        if isinstance(message, UIM):
            self._process_uim(message)
        elif isinstance(message, TagFlip):
            self._process_tag_flip(message)

    # -- topology failures (repro.chaos) ------------------------------------

    def handle_port_status(self, port: int, up: bool) -> None:
        """A local link changed state: report it to the controller.

        This is the paper's §11 "port-down FRM" — the NIB learns about
        link failures from the adjacent switches' reports."""
        if self.network is None:
            return
        peer = self.network.neighbor_on_port(self.name, port)
        self.send_control(
            PortStatus(reporter=self.name, peer=peer, port=port, up=up)
        )

    def on_crash(self, preserve_state: bool) -> None:
        """Called by the network when this switch crashes.

        ``preserve_state=False`` models a power-cycle: the pipeline
        program (all UIB registers, pending UIMs, scheduler
        reservations) is rebuilt from scratch and the ground-truth
        forwarding rules held at this node are removed.  With
        ``preserve_state=True`` the data-plane state survives and the
        switch resumes where it left off after a restart."""
        if preserve_state:
            return
        if self.forwarding_state is not None:
            for flow_id in self.forwarding_state.flows_with_rule_at(self.name):
                self.forwarding_state.set_rule(flow_id, self.name, None)
                if self.network is not None:
                    self.network.trace.record(
                        self.now, KIND_RULE_CHANGE, self.name,
                        flow=flow_id, next_hop=None, port=None, crash=True,
                    )
        program = P4UpdateProgram(max_flows=self._max_flows)
        program.agent = self
        program.congestion_aware = self.program.congestion_aware
        program.allow_consecutive_dual = self.program.allow_consecutive_dual
        self.program = program
        self.pipeline = Pipeline(program)
        self._pipeline_busy_until = 0.0
        self._installing.clear()
        self._piggyback.clear()
        if self.network is not None:
            self.configure_ports()
        self.program.scheduler.attach_obs(self.obs, self.name)

    def on_restart(self) -> None:
        """Called by the network when the switch comes back up."""

    def _process_tag_flip(self, flip: TagFlip) -> None:
        """§11 2PC: atomically start stamping the new tag.

        The register write is a single data-plane update; from this
        instant every packet of the flow follows the new-tag rules
        end-to-end (per-packet consistency).  The ground-truth mirror
        records the whole path switch at this one instant, which is
        exactly the 2PC semantics the checker should see.
        """
        idx = self.program.flow_index.index_of(flip.flow_id)
        self.program.registers["ingress_tag"].write(idx, flip.tag)
        if self.forwarding_state is not None and flip.new_path:
            path = list(flip.new_path)
            for a, b in zip(path, path[1:]):
                self.forwarding_state.set_rule(flip.flow_id, a, b)
            if self.network is not None:
                for a, b in zip(path, path[1:]):
                    self.network.trace.record(
                        self.now, KIND_RULE_CHANGE, a,
                        flow=flip.flow_id, next_hop=b, two_phase_flip=True,
                    )
        self.send_control(
            UFM(
                flow_id=flip.flow_id,
                version=flip.version,
                reporter=self.name,
                status="success",
                reason="tag_flipped",
            )
        )

    def _process_uim(self, uim: UIM) -> None:
        program = self.program
        applied = program.applied_version(uim.flow_id)
        if uim.version == applied and (
            uim.is_flow_egress or uim.is_segment_egress
        ):
            # §11 re-trigger: the controller resent the UIM after a
            # reported UNM loss — regenerate the notification.
            wait = self.params.unm_generation_delay.sample(self.rng)
            unm = program.build_unm(
                uim.flow_id, layer=1 if uim.is_flow_egress else 2,
                update_type=uim.update_type,
            )
            self.engine.schedule(wait, self._emit_unm_for, unm, uim)
            return
        if uim.version <= applied:
            self._send_alarm(
                uim.flow_id, uim.version,
                f"UIM version {uim.version} not newer than applied {applied}",
            )
            return
        known_size = program.flow_size_of(uim.flow_id)
        if known_size > 0 and abs(known_size - uim.flow_size) > 1e-9:
            # App. A.2: the flow size must stay identical; discard.
            self._send_alarm(
                uim.flow_id, uim.version,
                f"flow size changed {known_size} -> {uim.flow_size}",
            )
            return
        pending = program.pending_version(uim.flow_id)
        if uim.version <= pending:
            if (
                uim.version == pending
                and uim.update_type is UpdateType.DUAL
                and uim.is_segment_egress
            ):
                # §11 re-trigger at a segment egress that has not yet
                # applied: regenerate the second-layer UNM.
                wait = self.params.unm_generation_delay.sample(self.rng)
                self.engine.schedule(wait, self._originate_pending_unm, uim)
            return  # duplicate / older than the pending indication
        program.store_uim(uim)
        if known_size == 0:
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
        if self.program.applied_version(uim.flow_id) >= uim.version:
            return  # already updated meanwhile; the chain is running
        unm = self.program.build_pending_unm(uim, layer=2)
        self._emit_unm_for(unm, uim)

    def _egress_state(self, uim: UIM) -> NodeFlowState:
        if uim.update_type is not UpdateType.DUAL:
            return apply_sl_state(uim.version, 0)
        # DL keeps the inherited segment id: the one register it reads.
        idx = self.program.flow_index.lookup(uim.flow_id)
        return NodeFlowState(
            new_version=uim.version,
            new_distance=0,
            old_version=uim.version - 1,
            old_distance=(
                0 if idx is None else self.program.registers["old_distance"].read(idx)
            ),
            counter=0,
            update_type=UpdateType.DUAL,
        )

    def installing_version(self, flow_id: int) -> int:
        """Version currently being installed for the flow (0 if none)."""
        return self._installing.get(flow_id, 0)

    # -- timed rule installation ----------------------------------------------------------

    def schedule_install(self, uim: UIM, decision: Decision, unm_layer: int) -> None:
        """Install the new rule after the rule-install delay.

        Called by the pipeline on an admitted UPDATE and by the agent
        itself for the egress apply.  A newer version supersedes any
        in-flight install of an older one (fast-forward, §4.2).
        """
        current = self._installing.get(uim.flow_id, 0)
        if uim.version <= current:
            return
        self._installing[uim.flow_id] = uim.version
        if self.program.current_port(uim.flow_id) == uim.egress_port:
            # Version/distance registers change but the forwarding rule
            # does not (e.g. the egress node): a register write, not a
            # table install.
            delay = self.params.pipeline_delay.sample(self.rng)
        else:
            delay = self.params.rule_install_delay.sample(self.rng)
        self.engine.schedule(
            delay, self._complete_install, uim, decision, unm_layer
        )

    def _complete_install(self, uim: UIM, decision: Decision, unm_layer: int) -> None:
        # Superseded installs must not abort the newer admission's
        # reservation — try_move already rolled back the older transit
        # when the newer target was admitted.
        if self._installing.get(uim.flow_id, 0) != uim.version:
            return  # superseded by a newer update
        program = self.program
        if program.applied_version(uim.flow_id) >= uim.version:
            return  # already at this or a newer version
        assert decision.new_state is not None
        if uim.stage_tag is not None:
            # §11 2-phase commit: stage the rule under the new tag; the
            # live (old-tag) forwarding is untouched until the ingress
            # flips, so no cleanup and no capacity hand-over here.
            idx = program.flow_index.index_of(uim.flow_id)
            tag_array = "port_tag1" if uim.stage_tag else "port_tag0"
            program.registers[tag_array].write(idx, uim.egress_port)
            program.registers["two_phase"].write(idx, 1)
            program.write_state(uim.flow_id, decision.new_state)
            if self.network is not None:
                self.network.trace.record(
                    self.now, "rule_staged", self.name,
                    flow=uim.flow_id, tag=uim.stage_tag, port=uim.egress_port,
                )
        else:
            old_port = program.current_port(uim.flow_id)
            program.write_state(uim.flow_id, decision.new_state)
            program.set_current_port(uim.flow_id, uim.egress_port)
            if program.congestion_aware and uim.egress_port != LOCAL_DELIVER_PORT:
                # Traffic has moved: release the old link's reservation.
                program.scheduler.commit_move(uim.flow_id)
            self._mirror_rule(uim.flow_id, uim.egress_port, record=True)
            if old_port not in (NO_PORT, LOCAL_DELIVER_PORT) and old_port != uim.egress_port:
                # §11 rule cleanup: tell the abandoned old parent that no
                # further packets will arrive on this link.
                assert self.network is not None
                self.send(old_port, make_cleanup(
                    uim.flow_id, uim.version, self.network.take_packet_id()
                ))
        self.installs_completed += 1

        # Coordination after the install (paper §7.2, §8), staged or live.
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
            unm = program.build_unm(
                uim.flow_id, layer=unm_layer, update_type=uim.update_type
            )
            if decision.branch == "egress":
                wait = self.params.unm_generation_delay.sample(self.rng)
                self.engine.schedule(wait, self._emit_unm_for, unm, uim)
            else:
                self._emit_unm_for(unm, uim)

    def _mirror_rule(self, flow_id: int, egress_port: int, record: bool) -> None:
        network = self.network
        next_hop: Optional[str] = None
        if egress_port not in (LOCAL_DELIVER_PORT, NO_PORT) and network is not None:
            next_hop = network.neighbor_on_port(self.name, egress_port)
        if self.forwarding_state is not None and next_hop is not None:
            self.forwarding_state.set_rule(flow_id, self.name, next_hop)
        if record and network is not None:
            network.trace.record(
                network.engine.now, KIND_RULE_CHANGE, self.name,
                flow=flow_id, next_hop=next_hop, port=egress_port,
            )

    # -- UNM / UFM emission -------------------------------------------------------------------

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
            self.program.applied_version(mine.flow_id),
            self.program.pending_version(mine.flow_id),
        )
        if already >= mine.version:
            return  # duplicate delivery on a later notification
        self._process_uim(mine)

    def _emit_unm(self, unm: UNMFields, port: Optional[int]) -> None:
        if port is None or port == NO_PORT:
            return
        assert self.network is not None
        packet = unm.to_packet(self.network.take_packet_id())
        stack = self._piggyback.get((unm.flow_id, unm.new_version))
        if stack:
            packet.meta["uim_stack"] = stack
        self.send(port, packet)

    def _emit_unm_for(self, unm: UNMFields, uim: UIM) -> None:
        """Send the UNM towards the update's child(ren): a single child
        for path updates, every tree child for §11 destination trees."""
        if uim.child_ports:
            for port in uim.child_ports:
                self._emit_unm(unm, port)
        else:
            self._emit_unm(unm, uim.child_port)

    def _send_ufm_success(self, uim: UIM) -> None:
        self.send_control(
            UFM(
                flow_id=uim.flow_id,
                version=uim.version,
                reporter=self.name,
                status="success",
            )
        )

    def _send_alarm(self, flow_id: int, version: int, reason: str) -> None:
        ufm = UFM(
            flow_id=flow_id, version=version, reporter=self.name,
            status="alarm", reason=reason,
        )
        self.alarms.append(ufm)
        if self.network is not None:
            self.network.trace.record(
                self.now, KIND_VERIFY_FAIL, self.name,
                flow=flow_id, reason=reason,
            )
            self.send_control(ufm)

    # -- punt handling (CPU port) -----------------------------------------------------------------

    def _handle_punt(self, _switch: P4Switch, punt: CpuPunt) -> None:
        reason: str = punt.reason
        if reason == "frm":
            header = punt.packet.header("probe")
            self.send_control(
                FRM(
                    flow_id=header["flow_id"],
                    src=self.name,
                    dst="?",
                    reporter=self.name,
                )
            )
        elif reason == "ufm_success":
            unm = UNMFields.from_packet(punt.packet)
            self.send_control(
                UFM(
                    flow_id=unm.flow_id,
                    version=unm.new_version,
                    reporter=self.name,
                    status="success",
                )
            )
        elif reason.startswith("alarm:"):
            _, verdict, detail = reason.split(":", 2)
            unm = UNMFields.from_packet(punt.packet)
            self._send_alarm(unm.flow_id, unm.new_version, f"{verdict}: {detail}")

    # How many times the §11 watchdog re-arms before giving up.
    MAX_WATCHDOG_CHECKS = 20

    def _check_unm_timeout(self, uim: UIM, checks: int) -> None:
        """§11: "the gateway nodes would periodically monitor the
        arrival of UNM" — no notification within the window means it
        was lost; alert the controller and keep watching."""
        if self.program.applied_version(uim.flow_id) >= uim.version:
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

    def note_rule_removed(self, flow_id: int) -> None:
        """Mirror a cleanup-driven rule removal into the ground truth."""
        if self.forwarding_state is not None:
            self.forwarding_state.set_rule(flow_id, self.name, None)
        if self.network is not None:
            self.network.trace.record(
                self.now, KIND_RULE_CHANGE, self.name,
                flow=flow_id, next_hop=None, port=None, cleanup=True,
            )

    # -- probe observation hooks (used by Fig. 2) ----------------------------------------------------

    def note_probe_seen(self, flow_id: int, packet: Packet) -> None:
        packet.meta.setdefault("hops", []).append(self.name)
        if self.network is not None:
            self.network.trace.record(
                self.now, KIND_PACKET_RECV, self.name,
                flow=flow_id, seq=packet.header("probe")["seq"], ttl=packet.ttl,
            )

    def note_probe_delivered(self, flow_id: int, packet: Packet) -> None:
        if self.network is not None:
            self.network.trace.record(
                self.now, KIND_PACKET_DELIVERED, self.name,
                flow=flow_id, seq=packet.header("probe")["seq"],
            )

    def note_probe_ttl_expired(self, flow_id: int, packet: Packet) -> None:
        if self.network is not None:
            self.network.trace.record(
                self.now, KIND_PACKET_LOST, self.name,
                flow=flow_id, seq=packet.header("probe")["seq"], reason="ttl",
            )
