"""The simulated network: nodes, links, control channels, delivery.

Delivery semantics:

* data-plane: FIFO per directed link, delay = link latency (+ optional
  per-hop jitter from the parameter set);
* control-plane: per-switch control channel latency, plus a
  single-threaded controller service queue — the controller processes
  one message at a time, which is what makes the Central baseline pay
  for every acknowledgement round (paper §9.1, [40]).

A :class:`FaultPolicy` (e.g. :class:`repro.sim.faults.FaultModel`) can
be installed to drop/delay/duplicate/corrupt messages in flight.

Topology-level failures (repro.chaos, paper §11): links can go down
(losing in-flight messages), switches can crash and restart, and the
controller can suffer outage windows during which its control channel
is black-holed but the service queue is preserved.  All failure state
lives behind :meth:`Network.enable_chaos`; with chaos disarmed the
delivery paths pay one boolean check and are bit-identical to a build
without the chaos layer.
"""

from __future__ import annotations

import copy
from typing import Any, Optional

from repro.obs.context import NULL_OBS, ObsContext
from repro.sim.engine import Engine, Event
from repro.sim.faults import FaultAction, FaultDecision, FaultPolicy
from repro.sim.links import ControlChannel, Link
from repro.sim.node import Node
from repro.sim.trace import (
    KIND_CONTROLLER_DOWN,
    KIND_CONTROLLER_UP,
    KIND_LINK_DOWN,
    KIND_LINK_UP,
    KIND_MSG_DROP,
    KIND_MSG_RECV,
    KIND_MSG_SEND,
    KIND_SWITCH_CRASH,
    KIND_SWITCH_RESTART,
    Trace,
)


class Network:
    """Container wiring nodes together and delivering messages."""

    def __init__(
        self,
        engine: Optional[Engine] = None,
        trace: Optional[Trace] = None,
        obs: Optional[ObsContext] = None,
    ) -> None:
        self.engine = engine if engine is not None else Engine()
        self.trace = trace if trace is not None else Trace()
        self.obs = obs if obs is not None else NULL_OBS
        metrics = self.obs.metrics
        self._m_service_wait = metrics.family("histogram", "controller_service_wait_ms", "node")
        self.nodes: dict[str, Node] = {}
        self.links: list[Link] = []
        # (node, port) -> Link
        self._port_map: dict[tuple[str, int], Link] = {}
        # (node_a, node_b) -> Link  (both orientations)
        self._adjacency: dict[tuple[str, str], Link] = {}
        self.control_channels: dict[str, ControlChannel] = {}
        self.controller_name: Optional[str] = None
        self._fault_model: Optional[FaultPolicy] = None
        self._control_fault_model: Optional[FaultPolicy] = None
        # Single-threaded controller service queue state.
        self.controller_service_busy_until = 0.0
        # -- topology-level failure state (repro.chaos) ----------------
        # One boolean gates every failure check on the delivery paths;
        # until enable_chaos() (or any failure API) flips it, the
        # chaos layer is inert and adds no events or RNG draws.
        self._chaos = False
        self._down_links: set[frozenset[str]] = set()
        self._down_nodes: set[str] = set()
        self.controller_outage = False
        # Control messages that arrived at the controller during an
        # outage window; re-enqueued (service queue preserved) when
        # the controller comes back.
        self._outage_buffer: list[tuple[str, Any, str, str]] = []
        # link key -> delivery events currently on that wire, so a
        # LinkDown can lose them.  Only maintained while chaos is
        # armed.
        self._in_flight: dict[frozenset[str], list[Event]] = {}
        # Debug packet numbering (``Packet#N`` in trace tags): one plain
        # counter per deployment, so a run never sees what an earlier
        # run in the process numbered.
        self.next_packet_id = 1

    def take_packet_id(self) -> int:
        """Issue the next packet id of this network (1, 2, ...)."""
        packet_id = self.next_packet_id
        self.next_packet_id = packet_id + 1
        return packet_id

    # -- fault models ------------------------------------------------------

    @property
    def fault_model(self) -> Optional[FaultPolicy]:
        return self._fault_model

    @fault_model.setter
    def fault_model(self, model: Optional[FaultPolicy]) -> None:
        self._fault_model = self._bind_fault_metrics(model, "data")

    @property
    def control_fault_model(self) -> Optional[FaultPolicy]:
        return self._control_fault_model

    @control_fault_model.setter
    def control_fault_model(self, model: Optional[FaultPolicy]) -> None:
        self._control_fault_model = self._bind_fault_metrics(model, "control")

    def _bind_fault_metrics(
        self, model: Optional[FaultPolicy], plane: str
    ) -> Optional[FaultPolicy]:
        """Expose fault counters through the run's metrics registry."""
        if model is not None and self.obs.enabled:
            attach = getattr(model, "attach_metrics", None)
            if attach is not None:
                attach(self.obs.metrics, plane)
        return model

    # -- construction ----------------------------------------------------

    def add_node(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        node.attach(self)
        return node

    def add_link(self, link: Link) -> Link:
        for key in ((link.node_a, link.port_a), (link.node_b, link.port_b)):
            if key in self._port_map:
                raise ValueError(f"port already in use: {key}")
        for name in (link.node_a, link.node_b):
            if name not in self.nodes:
                raise ValueError(f"unknown node {name!r}")
        self.links.append(link)
        self._port_map[(link.node_a, link.port_a)] = link
        self._port_map[(link.node_b, link.port_b)] = link
        self._adjacency[(link.node_a, link.node_b)] = link
        self._adjacency[(link.node_b, link.node_a)] = link
        return link

    def set_controller(self, name: str) -> None:
        if name not in self.nodes:
            raise ValueError(f"unknown node {name!r}")
        self.controller_name = name

    def add_control_channel(self, channel: ControlChannel) -> None:
        self.control_channels[channel.switch] = channel

    # -- lookup ------------------------------------------------------------

    def link_at(self, node: str, port: int) -> Link:
        try:
            return self._port_map[(node, port)]
        except KeyError:
            raise KeyError(f"no link on {node!r} port {port}") from None

    def link_between(self, node_a: str, node_b: str) -> Link:
        try:
            return self._adjacency[(node_a, node_b)]
        except KeyError:
            raise KeyError(f"no link between {node_a!r} and {node_b!r}") from None

    def port_towards(self, node: str, neighbor: str) -> int:
        """The local port on ``node`` whose link leads to ``neighbor``."""
        link = self.link_between(node, neighbor)
        if link.node_a == node:
            return link.port_a
        return link.port_b

    def neighbor_on_port(self, node: str, port: int) -> str:
        return self.link_at(node, port).endpoint(node)[0]

    # -- simulation ----------------------------------------------------------

    def start(self) -> None:
        """Invoke every node's start hook at t=0."""
        for node in self.nodes.values():
            node.start()

    # -- topology failures (repro.chaos) -----------------------------------

    def enable_chaos(self) -> None:
        """Arm the failure layer.

        Must be called before messages whose in-flight loss matters are
        sent — delivery events are only tracked per link while armed.
        Every failure API arms the layer itself, but messages already
        on the wire at that point are not retroactively tracked.
        """
        self._chaos = True

    @property
    def chaos_enabled(self) -> bool:
        return self._chaos

    def set_link_state(self, node_a: str, node_b: str, up: bool) -> None:
        """Take the (bidirectional) link between two nodes down or up.

        On LinkDown, messages currently on the wire are lost and both
        endpoints get a synchronous port-status notification (which
        P4Update switches relay to the controller as port-down FRMs,
        §11).  On LinkUp the endpoints are notified again.
        """
        self.enable_chaos()
        link = self.link_between(node_a, node_b)
        key = link.key
        now = self.engine.now
        if up:
            if key not in self._down_links:
                return
            self._down_links.discard(key)
            self.trace.record(now, KIND_LINK_UP, link.node_a, peer=link.node_b)
        else:
            if key in self._down_links:
                return
            self._down_links.add(key)
            self.trace.record(now, KIND_LINK_DOWN, link.node_a, peer=link.node_b)
            for event in self._in_flight.pop(key, []):
                if event.cancelled or event.time < now:
                    continue
                event.cancel()
                dest, _dest_port, _payload, tag, mtype = event.args
                self._drop_for_failure(
                    link.other(dest), dest, tag, mtype, plane="data", reason="link_down"
                )
        self._notify_port_status(link, up)

    def _notify_port_status(self, link: Link, up: bool) -> None:
        for name, port in (
            (link.node_a, link.port_a),
            (link.node_b, link.port_b),
        ):
            if name in self._down_nodes:
                continue
            self.nodes[name].handle_port_status(port, up)

    def crash_switch(self, name: str, preserve_state: bool = False) -> None:
        """Crash a switch: it stops sending and receiving.

        ``preserve_state`` selects the register policy: False models a
        power-cycle (pipeline registers and queued work are lost, the
        node's ``on_crash`` hook resets them); True models a fast
        control-agent failure where the data-plane state survives.
        Live neighbors see their ports toward the switch go down.
        """
        self.enable_chaos()
        if name not in self.nodes:
            raise KeyError(f"unknown node {name!r}")
        if name in self._down_nodes:
            return
        self._down_nodes.add(name)
        self.trace.record(
            self.engine.now, KIND_SWITCH_CRASH, name, preserve_state=preserve_state
        )
        hook = getattr(self.nodes[name], "on_crash", None)
        if hook is not None:
            hook(preserve_state)
        self._notify_neighbors(name, False)

    def restart_switch(self, name: str) -> None:
        """Bring a crashed switch back; neighbors see ports come up."""
        self.enable_chaos()
        if name not in self._down_nodes:
            return
        self._down_nodes.discard(name)
        self.trace.record(self.engine.now, KIND_SWITCH_RESTART, name)
        hook = getattr(self.nodes[name], "on_restart", None)
        if hook is not None:
            hook()
        self._notify_neighbors(name, True)

    def _notify_neighbors(self, name: str, up: bool) -> None:
        """Live neighbors of ``name`` see their port toward it go up / down."""
        for link in self._links_of(name):
            other = link.other(name)
            if link.key in self._down_links or other in self._down_nodes:
                continue
            port = link.port_a if link.node_a == other else link.port_b
            self.nodes[other].handle_port_status(port, up)

    def set_controller_outage(self, down: bool) -> None:
        """Black-hole the control channel during a controller outage.

        Messages arriving at the controller while it is down are
        buffered and re-enqueued through the (preserved) service queue
        at recovery time; messages *sent* during the window — in either
        direction — are lost, modelling a dead management network.
        """
        self.enable_chaos()
        if self.controller_name is None:
            raise RuntimeError("no controller registered")
        if down == self.controller_outage:
            return
        self.controller_outage = down
        kind = KIND_CONTROLLER_DOWN if down else KIND_CONTROLLER_UP
        self.trace.record(self.engine.now, kind, self.controller_name)
        if not down and self._outage_buffer:
            buffered = self._outage_buffer
            self._outage_buffer = []
            for sender, message, tag, mtype in buffered:
                self._enqueue_at_controller(sender, message, tag, mtype)

    def _links_of(self, name: str) -> list[Link]:
        return [link for link in self.links if name in (link.node_a, link.node_b)]

    def _drop_for_failure(
        self, sender: str, dest: str, tag: str, mtype: str, plane: str, reason: str
    ) -> None:
        self.trace.record(
            self.engine.now, KIND_MSG_DROP, sender,
            dest=dest, message=tag, type=mtype, reason=reason,
        )
        self.obs.count("messages_lost_to_failure", plane=plane, reason=reason)

    def _note_in_flight(self, key: frozenset, event: Event) -> None:
        flights = self._in_flight.setdefault(key, [])
        now = self.engine.now
        while flights and (flights[0].cancelled or flights[0].time < now):
            flights.pop(0)
        flights.append(event)

    # -- data-plane delivery ---------------------------------------------------

    def transmit(self, sender: str, port: int, message: Any) -> None:
        link = self.link_at(sender, port)
        dest, dest_port = link.endpoint(sender)
        # The trace tag and the message type are worked out once and
        # travel with the message.
        tag = describe(message)
        mtype = message_type(message)
        self.trace.record(
            self.engine.now, KIND_MSG_SEND, sender,
            dest=dest, port=port, message=tag, type=mtype,
        )
        if self._chaos:
            if sender in self._down_nodes:
                self._drop_for_failure(sender, dest, tag, mtype, "data", "sender_down")
                return
            if link.key in self._down_links:
                self._drop_for_failure(sender, dest, tag, mtype, "data", "link_down")
                return
        decision = self._fault_decision(self._fault_model, message)
        if decision.action is FaultAction.DROP:
            self.trace.record(
                self.engine.now, KIND_MSG_DROP, sender,
                dest=dest, message=tag, type=mtype,
            )
            return
        delay = link.latency_ms + decision.extra_delay_ms
        payload = message
        if decision.action is FaultAction.CORRUPT and decision.mutate is not None:
            payload = decision.mutate(copy.deepcopy(message))
        event = self.engine.schedule(
            delay, self._deliver, dest, dest_port, payload,
            tag if payload is message else describe(payload),
            mtype if payload is message else message_type(payload),
        )
        if self._chaos:
            self._note_in_flight(link.key, event)
        if decision.action is FaultAction.DUPLICATE:
            dup = self.engine.schedule(
                delay, self._deliver, dest, dest_port, copy.deepcopy(message), tag, mtype
            )
            if self._chaos:
                self._note_in_flight(link.key, dup)

    def _deliver(self, dest: str, dest_port: int, message: Any, tag: str, mtype: str) -> None:
        node = self.nodes.get(dest)
        if node is None:
            return
        if self._chaos and dest in self._down_nodes:
            self._drop_for_failure(
                self.neighbor_on_port(dest, dest_port), dest, tag, mtype,
                "data", "dest_down",
            )
            return
        self.trace.record(
            self.engine.now, KIND_MSG_RECV, dest,
            port=dest_port, message=tag, type=mtype,
        )
        node.handle_message(message)

    # -- control-plane delivery ---------------------------------------------------

    def transmit_control(self, sender: str, message: Any) -> None:
        """Control channel between a switch and the controller.

        When the sender is the controller, the message must carry a
        ``target`` attribute naming the destination switch.  When the
        sender is a switch, delivery goes to the controller and passes
        through the single-threaded controller service queue.
        """
        if self.controller_name is None:
            raise RuntimeError("no controller registered")
        # A control message's type is its class.
        mtype = type(message).__name__
        if self._chaos and (sender in self._down_nodes or self.controller_outage):
            self._drop_for_failure(
                sender, self.controller_name, describe(message), mtype, "control",
                "sender_down" if sender in self._down_nodes else "controller_outage",
            )
            return
        decision = self._fault_decision(self._control_fault_model, message)
        if decision.action is FaultAction.DROP:
            self.trace.record(
                self.engine.now, KIND_MSG_DROP, sender, message=describe(message), type=mtype,
            )
            return
        payload = message
        if decision.action is FaultAction.CORRUPT and decision.mutate is not None:
            payload = decision.mutate(copy.deepcopy(message))
        # Worked out once, after any corruption: the tag and the type
        # travel with the payload to its msg_recv record.
        tag, payload_type = describe(payload), type(payload).__name__

        if sender == self.controller_name:
            target = getattr(payload, "target", None)
            if target is None:
                raise ValueError("controller message lacks .target")
            channel = self._channel_for(target)
            delay = channel.delay() + decision.extra_delay_ms
            self.trace.record(
                self.engine.now, KIND_MSG_SEND, sender,
                dest=target, message=tag, type=mtype,
            )
            self.engine.schedule(
                delay, self._deliver_control, target, payload, sender, tag, payload_type
            )
            if decision.action is FaultAction.DUPLICATE:
                self.engine.schedule(
                    delay, self._deliver_control,
                    target, copy.deepcopy(payload), sender, tag, payload_type,
                )
        else:
            channel = self._channel_for(sender)
            delay = channel.delay() + decision.extra_delay_ms
            self.trace.record(
                self.engine.now, KIND_MSG_SEND, sender,
                dest=self.controller_name, message=tag, type=mtype,
            )
            self.engine.schedule(
                delay, self._enqueue_at_controller, sender, payload, tag, payload_type
            )
            if decision.action is FaultAction.DUPLICATE:
                self.engine.schedule(
                    delay, self._enqueue_at_controller,
                    sender, copy.deepcopy(payload), tag, payload_type,
                )

    def _channel_for(self, switch: str) -> ControlChannel:
        channel = self.control_channels.get(switch)
        if channel is None:
            raise KeyError(f"no control channel for {switch!r}")
        return channel

    def _enqueue_at_controller(self, sender: str, message: Any, tag: str, mtype: str) -> None:
        """Messages to the controller serialise through one service queue.

        The controller handles one message at a time (paper: single
        thread); service time is supplied by the controller node via
        ``control_service_time()`` if present, else zero.
        """
        if self._chaos and self.controller_outage:
            # Arrived while the controller is down: the service queue
            # survives the outage, so park the message for re-enqueue
            # at recovery.
            self._outage_buffer.append((sender, message, tag, mtype))
            return
        controller = self.nodes[self.controller_name]
        service_time = 0.0
        provider = getattr(controller, "control_service_time", None)
        if provider is not None:
            service_time = provider()
        backlog = 0.0
        backlog_provider = getattr(controller, "control_queue_delay", None)
        if backlog_provider is not None:
            backlog = backlog_provider()
        start = max(self.engine.now, self.controller_service_busy_until) + backlog
        finish = start + service_time
        self.controller_service_busy_until = finish
        if self.obs.enabled:
            self._m_service_wait[(self.controller_name,)].observe(start - self.engine.now)
        self.engine.schedule(
            finish - self.engine.now, self._deliver_control,
            self.controller_name, message, sender, tag, mtype,
        )

    def _deliver_control(self, dest: str, message: Any, sender: str, tag: str, mtype: str) -> None:
        node = self.nodes.get(dest)
        if node is None:
            return
        if self._chaos and dest in self._down_nodes:
            self._drop_for_failure(sender, dest, tag, mtype, "control", "dest_down")
            return
        self.trace.record(
            self.engine.now, KIND_MSG_RECV, dest,
            sender=sender, message=tag, type=mtype,
        )
        node.handle_control(message)

    # -- faults -------------------------------------------------------------------

    def _fault_decision(
        self, model: Optional[FaultPolicy], message: Any
    ) -> FaultDecision:
        if model is None:
            return _NO_FAULT
        return model.decide(message)


# What every transmission gets when no policy is installed; read-only.
_NO_FAULT = FaultDecision()


def describe(message: Any) -> str:
    """Short human-readable tag for a message, used in traces."""
    describe_fn = getattr(message, "describe", None)
    if callable(describe_fn):
        return describe_fn()
    return type(message).__name__


def message_type(message: Any) -> str:
    """Coarse message class, the ``type`` of a data-plane ``msg_*`` record.

    Data-plane messages are ``Packet`` instances; the interesting
    distinction is which header they carry (UNM, probe, cleanup).
    Other messages keep their class name.  One Python call: validity
    is read as the ``valid`` attribute, not through ``is_valid()``.
    """
    headers = getattr(message, "headers", None)
    if headers is None:
        return type(message).__name__
    for name in ("unm", "probe", "cleanup"):
        header = headers.get(name)
        if header is not None and header.valid:
            return name
    return "packet"
