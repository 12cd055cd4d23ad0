"""Reliable control delivery (§11, "Failures in the Update Process").

The paper assumes the controller can lose UIMs on an unreliable
control channel; P4Update's watchdogs eventually recover, but slowly
(a full re-trigger round-trip).  The :class:`ReliableControlSender`
adds transport-level reliability under the protocol: every
controller -> switch message is wrapped in a sequence-numbered
:class:`~repro.core.messages.Sequenced` envelope, acked by the
receiver, and retransmitted with seeded exponential backoff + jitter
until either the ack arrives or a bounded retry budget is exhausted —
at which point the failure is *escalated* to the controller's
recovery logic (the target switch is treated as unreachable).

Receiver-side dedup (see ``P4UpdateSwitch.handle_control``) makes
retransmissions and duplicate faults safe end-to-end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from repro.core.messages import Sequenced
from repro.sim.engine import Event
from repro.sim.node import Node
from repro.sim.trace import KIND_RETRANSMIT


@dataclass
class _Pending:
    """Book-keeping for one unacknowledged envelope."""

    envelope: Sequenced
    attempt: int = 1              # 1 = original transmission
    timer: Optional[Event] = None


class ReliableControlSender:
    """Ack-tracked, retransmitting control sender for the controller.

    ``send`` wraps the message and transmits it; a timer retransmits
    with exponential backoff until :meth:`ack` cancels it.  After
    ``max_retries`` retransmissions the ``on_exhausted`` callback
    fires with the original (inner) message.
    """

    def __init__(
        self,
        node: Node,
        rng: np.random.Generator,
        timeout_ms: float = 80.0,
        backoff: float = 2.0,
        jitter_ms: float = 5.0,
        max_retries: int = 6,
        on_exhausted: Optional[Callable[[Any], None]] = None,
    ) -> None:
        self.node = node
        self.rng = rng
        self.timeout_ms = timeout_ms
        self.backoff = backoff
        self.jitter_ms = jitter_ms
        self.max_retries = max_retries
        self.on_exhausted = on_exhausted
        self._next_seq = 1
        self._outstanding: dict[int, _Pending] = {}
        self.retransmissions = 0
        self.exhausted = 0

    @property
    def outstanding(self) -> int:
        return len(self._outstanding)

    def send(self, message: Any) -> int:
        """Wrap ``message`` in an envelope and transmit reliably.

        ``message`` must carry a ``target`` attribute (UIM, TagFlip).
        Returns the assigned sequence number.
        """
        target = getattr(message, "target", None)
        if target is None:
            raise ValueError("reliable send requires a message with .target")
        seq = self._next_seq
        self._next_seq += 1
        self._outstanding[seq] = _Pending(
            envelope=Sequenced(seq=seq, target=target, inner=message)
        )
        self._transmit(seq)
        return seq

    def ack(self, seq: int) -> None:
        """An ack for ``seq`` arrived; stop retransmitting it."""
        pending = self._outstanding.pop(seq, None)
        if pending is None:
            return                # late/duplicate ack
        if pending.timer is not None:
            pending.timer.cancel()

    def cancel_target(self, target: str) -> None:
        """Abandon every outstanding send to ``target``.

        Used after escalation: once the controller treats the switch
        as failed, continuing to retransmit to it is pointless.
        """
        for seq in [
            s for s, p in self._outstanding.items() if p.envelope.target == target
        ]:
            self.ack(seq)

    def _transmit(self, seq: int) -> None:
        pending = self._outstanding.get(seq)
        if pending is None:
            return
        self.node.send_control(pending.envelope)
        timeout = self.timeout_ms * self.backoff ** (pending.attempt - 1)
        timeout += float(self.rng.uniform(0.0, self.jitter_ms))
        pending.timer = self.node.engine.schedule(timeout, self._on_timeout, seq)

    def _on_timeout(self, seq: int) -> None:
        pending = self._outstanding.get(seq)
        if pending is None:
            return
        if pending.attempt > self.max_retries:
            self._outstanding.pop(seq, None)
            self.exhausted += 1
            self.node.obs.count(
                "control_retry_exhausted", target=pending.envelope.target
            )
            if self.on_exhausted is not None:
                self.on_exhausted(pending.envelope.inner)
            return
        pending.attempt += 1
        self.retransmissions += 1
        flow_id = getattr(pending.envelope.inner, "flow_id", None)
        self.node.network.trace.record(
            self.node.engine.now, KIND_RETRANSMIT, self.node.name,
            **({} if flow_id is None else {"flow": flow_id}),
            target=pending.envelope.target, attempt=pending.attempt,
        )
        self._transmit(seq)
