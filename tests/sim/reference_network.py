"""Message delivery that formats its trace tag at both ends — the reference.

``ReferenceNetwork`` holds, verbatim, the bodies ``Network`` had when
``describe(message)`` ran once for the ``msg_send`` record and again
for the ``msg_recv`` (or ``msg_drop``) record, and every fault-free
transmission built its own ``FaultDecision()``: ``transmit``,
``_deliver``, ``transmit_control``, ``_enqueue_at_controller``,
``_deliver_control`` and ``_fault_decision`` — plus the three that
unpack what those schedule or buffer (``set_link_state``'s in-flight
loss, ``set_controller_outage``'s re-enqueue, ``_drop_for_failure``),
so the subclass is self-consistent.  The trace it records *is* the
specification; ``test_network_single_describe.py`` swaps it in
(``tests.reference_scenarios.swap_bodies``) and holds the shipped bodies
equal to it, event by event.
"""

from __future__ import annotations

import copy
from typing import Any, Optional

from repro.sim.faults import FaultAction, FaultDecision, FaultPolicy
from repro.sim.network import Network, describe, message_type
from repro.sim.trace import (
    KIND_CONTROLLER_DOWN,
    KIND_CONTROLLER_UP,
    KIND_LINK_DOWN,
    KIND_LINK_UP,
    KIND_MSG_DROP,
    KIND_MSG_RECV,
    KIND_MSG_SEND,
)


class ReferenceNetwork(Network):
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
            if self.obs.enabled:
                self.obs.metrics.counter("topo_events", kind="link_up").inc()
        else:
            if key in self._down_links:
                return
            self._down_links.add(key)
            self.trace.record(now, KIND_LINK_DOWN, link.node_a, peer=link.node_b)
            if self.obs.enabled:
                self.obs.metrics.counter("topo_events", kind="link_down").inc()
            for event in self._in_flight.pop(key, []):
                if event.cancelled or event.time < now:
                    continue
                event.cancel()
                dest, _dest_port, payload = event.args
                self._drop_for_failure(
                    link.other(dest), dest, payload, plane="data", reason="link_down"
                )
        self._notify_port_status(link, up)

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
        if self.obs.enabled:
            self.obs.metrics.counter(
                "topo_events", kind="controller_down" if down else "controller_up"
            ).inc()
        if not down and self._outage_buffer:
            buffered = self._outage_buffer
            self._outage_buffer = []
            for sender, message in buffered:
                self._enqueue_at_controller(sender, message)

    def _drop_for_failure(
        self, sender: str, dest: str, message: Any, plane: str, reason: str
    ) -> None:
        self.trace.record(
            self.engine.now, KIND_MSG_DROP, sender,
            dest=dest, message=describe(message), reason=reason,
        )
        if self.obs.enabled:
            self.obs.metrics.counter(
                "messages_lost_to_failure", plane=plane, reason=reason,
            ).inc()

    def transmit(self, sender: str, port: int, message: Any) -> None:
        link = self.link_at(sender, port)
        dest, dest_port = link.endpoint(sender)
        self.trace.record(
            self.engine.now, KIND_MSG_SEND, sender,
            dest=dest, port=port, message=describe(message),
        )
        if self.obs.enabled:
            self.obs.metrics.counter(
                "messages_sent", node=sender, plane="data",
                type=message_type(message),
            ).inc()
        if self._chaos:
            if sender in self._down_nodes:
                self._drop_for_failure(sender, dest, message, "data", "sender_down")
                return
            if link.key in self._down_links:
                self._drop_for_failure(sender, dest, message, "data", "link_down")
                return
        decision = self._fault_decision(self._fault_model, message)
        if decision.action is FaultAction.DROP:
            self.trace.record(
                self.engine.now, KIND_MSG_DROP, sender,
                dest=dest, message=describe(message),
            )
            if self.obs.enabled:
                self.obs.metrics.counter(
                    "messages_dropped", node=sender, plane="data",
                    type=message_type(message),
                ).inc()
            return
        delay = link.latency_ms + decision.extra_delay_ms
        payload = message
        if decision.action is FaultAction.CORRUPT and decision.mutate is not None:
            payload = decision.mutate(copy.deepcopy(message))
        event = self.engine.schedule(delay, self._deliver, dest, dest_port, payload)
        if self._chaos:
            self._note_in_flight(link.key, event)
        if decision.action is FaultAction.DUPLICATE:
            dup = self.engine.schedule(
                delay, self._deliver, dest, dest_port, copy.deepcopy(message)
            )
            if self._chaos:
                self._note_in_flight(link.key, dup)

    def _deliver(self, dest: str, dest_port: int, message: Any) -> None:
        node = self.nodes.get(dest)
        if node is None:
            return
        if self._chaos and dest in self._down_nodes:
            self._drop_for_failure(
                self.neighbor_on_port(dest, dest_port), dest, message,
                "data", "dest_down",
            )
            return
        self.trace.record(
            self.engine.now, KIND_MSG_RECV, dest,
            port=dest_port, message=describe(message),
        )
        if self.obs.enabled:
            self.obs.metrics.counter(
                "messages_received", node=dest, plane="data",
                type=message_type(message),
            ).inc()
        node.handle_message(message)

    def transmit_control(self, sender: str, message: Any) -> None:
        """Control channel between a switch and the controller.

        When the sender is the controller, the message must carry a
        ``target`` attribute naming the destination switch.  When the
        sender is a switch, delivery goes to the controller and passes
        through the single-threaded controller service queue.
        """
        if self.controller_name is None:
            raise RuntimeError("no controller registered")
        if self._chaos:
            if sender in self._down_nodes:
                self._drop_for_failure(
                    sender, self.controller_name, message, "control", "sender_down"
                )
                return
            if self.controller_outage:
                self._drop_for_failure(
                    sender, self.controller_name, message,
                    "control", "controller_outage",
                )
                return
        decision = self._fault_decision(self._control_fault_model, message)
        if self.obs.enabled:
            self.obs.metrics.counter(
                "messages_sent", node=sender, plane="control",
                type=message_type(message),
            ).inc()
        if decision.action is FaultAction.DROP:
            self.trace.record(
                self.engine.now, KIND_MSG_DROP, sender, message=describe(message),
            )
            if self.obs.enabled:
                self.obs.metrics.counter(
                    "messages_dropped", node=sender, plane="control",
                    type=message_type(message),
                ).inc()
            return
        payload = message
        if decision.action is FaultAction.CORRUPT and decision.mutate is not None:
            payload = decision.mutate(copy.deepcopy(message))

        if sender == self.controller_name:
            target = getattr(payload, "target", None)
            if target is None:
                raise ValueError("controller message lacks .target")
            channel = self._channel_for(target)
            delay = channel.delay() + decision.extra_delay_ms
            self.trace.record(
                self.engine.now, KIND_MSG_SEND, sender,
                dest=target, message=describe(payload),
            )
            self.engine.schedule(delay, self._deliver_control, target, payload, sender)
            if decision.action is FaultAction.DUPLICATE:
                self.engine.schedule(
                    delay, self._deliver_control, target, copy.deepcopy(payload), sender
                )
        else:
            channel = self._channel_for(sender)
            delay = channel.delay() + decision.extra_delay_ms
            self.trace.record(
                self.engine.now, KIND_MSG_SEND, sender,
                dest=self.controller_name, message=describe(payload),
            )
            self.engine.schedule(delay, self._enqueue_at_controller, sender, payload)
            if decision.action is FaultAction.DUPLICATE:
                self.engine.schedule(
                    delay, self._enqueue_at_controller, sender, copy.deepcopy(payload)
                )

    def _enqueue_at_controller(self, sender: str, message: Any) -> None:
        """Messages to the controller serialise through one service queue.

        The controller handles one message at a time (paper: single
        thread); service time is supplied by the controller node via
        ``control_service_time()`` if present, else zero.
        """
        if self._chaos and self.controller_outage:
            # Arrived while the controller is down: the service queue
            # survives the outage, so park the message for re-enqueue
            # at recovery.
            self._outage_buffer.append((sender, message))
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
            self.obs.metrics.histogram(
                "controller_service_wait_ms", node=self.controller_name,
            ).observe(start - self.engine.now)
        self.engine.schedule(
            finish - self.engine.now, self._deliver_control,
            self.controller_name, message, sender,
        )

    def _deliver_control(self, dest: str, message: Any, sender: str) -> None:
        node = self.nodes.get(dest)
        if node is None:
            return
        if self._chaos and dest in self._down_nodes:
            self._drop_for_failure(sender, dest, message, "control", "dest_down")
            return
        self.trace.record(
            self.engine.now, KIND_MSG_RECV, dest,
            sender=sender, message=describe(message),
        )
        if self.obs.enabled:
            self.obs.metrics.counter(
                "messages_received", node=dest, plane="control",
                type=message_type(message),
            ).inc()
        node.handle_control(message)

    def _fault_decision(
        self, model: Optional[FaultPolicy], message: Any
    ) -> FaultDecision:
        if model is None:
            return FaultDecision()
        return model.decide(message)
