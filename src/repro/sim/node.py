"""Base class for simulated network nodes (switches, controller, hosts)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from repro.obs.context import NULL_OBS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.params import SimParams
    from repro.sim.engine import Engine
    from repro.sim.network import Network


class Node:
    """A named participant in the simulated network.

    Subclasses override :meth:`handle_message` (data-plane packets)
    and :meth:`handle_control` (control-channel messages from/to the
    controller).  A handler gets the message alone: the arrival port
    and the control sender go into the trace records (``msg_recv``,
    ``msg_drop``), and no node reads them.

    Every node carries an observability context (``self.obs``),
    defaulting to the shared no-op; builders swap in a live one when a
    run is instrumented.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.network: Optional["Network"] = None
        self.obs = NULL_OBS

    # -- lifecycle -----------------------------------------------------

    def attach(self, network: "Network") -> None:
        """Called by :class:`Network` when the node is added."""
        self.network = network

    def start(self) -> None:
        """Hook invoked once when the simulation starts."""

    # -- messaging -----------------------------------------------------

    @property
    def engine(self) -> "Engine":
        if self.network is None:
            raise RuntimeError(f"node {self.name!r} is not attached to a network")
        return self.network.engine

    @property
    def now(self) -> float:
        return self.engine.now

    def send(self, port: int, message: Any) -> None:
        """Emit ``message`` on data-plane ``port``."""
        if self.network is None:
            raise RuntimeError(f"node {self.name!r} is not attached to a network")
        self.network.transmit(self.name, port, message)

    def send_control(self, message: Any) -> None:
        """Send ``message`` over the control channel (to the controller,
        or — when called by the controller — to ``message.target``)."""
        if self.network is None:
            raise RuntimeError(f"node {self.name!r} is not attached to a network")
        self.network.transmit_control(self.name, message)

    # -- handlers (override in subclasses) ------------------------------

    def handle_message(self, message: Any) -> None:
        """Receive a data-plane message, from a link or generated locally."""

    def handle_control(self, message: Any) -> None:
        """Receive a control-channel message."""

    def handle_port_status(self, port: int, up: bool) -> None:
        """The link on local ``port`` changed state (repro.chaos).

        Called synchronously by the network when the attached link goes
        down or comes back up; switches override this to report the
        event to the controller (port-down FRMs, §11)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class ControllerNode(Node):
    """A controller: the node behind the single-threaded service queue.

    :class:`~repro.sim.network.Network` asks it for each queued
    message's service time and backlog wait; both are drawn from the
    subclass's own ``self.rng`` under its ``self.params``.
    """

    params: "SimParams"
    rng: np.random.Generator

    def control_service_time(self) -> float:
        """Per-message service time at the single-threaded controller."""
        return self.params.controller_service.sample(self.rng)

    def control_queue_delay(self) -> float:
        """Backlog wait behind background control traffic ([40])."""
        util = self.params.controller_background_util
        if util <= 0:
            return 0.0
        mean_wait = util / (1.0 - util) * self.params.controller_service.value
        return float(self.rng.exponential(mean_wait))
