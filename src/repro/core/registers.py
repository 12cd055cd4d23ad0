"""The Update Information Base — paper Table 1 as register arrays.

Table 1 lists per-flow registers: ``new_distance``, ``new_version``,
``egress_port_updated`` (the pending configuration from the UIM),
``old_distance``, ``old_version``, ``egress_port`` (the current one),
``flow_size``, ``flow_priority``, ``t`` (last update type) and
``counter``.

Algorithm 2 distinguishes *three* tiers of state — the pending UIM
(``V_n(UIM)``, ``D_n(UIM)``), the applied configuration (``V_n(v)``,
``D_n(v)``) and the previous/inherited one (``V_o(v)``, ``D_o(v)``) —
so the UIB keeps the applied tier explicit (``cur_*``) in addition to
Table 1's pending (``pend_*`` = Table 1 ``new_*``) and old tiers.
Field-for-field correspondence is asserted by
``tests/core/test_registers.py``.

Flow indexing: the artifact indexes register arrays by a hash of the
flow id.  We allocate dense indices per switch (a perfect-hash
abstraction) so that reproduction runs can never be corrupted by hash
collisions; the hash-indexed mode of :func:`repro.traffic.flows.flow_hash`
remains available for collision experiments.
"""

from __future__ import annotations

from typing import Optional

from repro.p4.registers import RegisterFile

# Register geometry.
DEFAULT_MAX_FLOWS = 4096
PORT_WIDTH_BITS = 16
VERSION_WIDTH_BITS = 16
DISTANCE_WIDTH_BITS = 16

# Sentinel port values.
LOCAL_DELIVER_PORT = 511        # flow egress: deliver locally
NO_PORT = 0xFFFF                # "no port" (e.g. no child at the ingress)

# Flow sizes are stored scaled to integers in the register mirror.
FLOW_SIZE_SCALE = 1000

# pend_flags bits.
FLAG_FLOW_EGRESS = 1 << 0
FLAG_SEGMENT_EGRESS = 1 << 1
FLAG_INGRESS = 1 << 2
FLAG_GATEWAY = 1 << 3

# Table 1 name -> our register name (documentation + test anchor).
TABLE1_MAPPING = {
    "new_distance": "pend_distance",
    "new_version": "pend_version",
    "egress_port_updated": "pend_egress_port",
    "old_distance": "old_distance",
    "old_version": "old_version",
    "egress_port": "cur_egress_port",
    "flow_size": "flow_size",
    "flow_priority": "flow_priority",
    "t": "last_type",
    "counter": "counter",
}


def define_uib(registers: RegisterFile, max_flows: int = DEFAULT_MAX_FLOWS) -> None:
    """Declare every UIB register array on ``registers``."""
    # Pending tier (Table 1 "new"): the highest UIM's content.
    registers.define("pend_version", max_flows, VERSION_WIDTH_BITS)
    registers.define("pend_distance", max_flows, DISTANCE_WIDTH_BITS)
    registers.define("pend_egress_port", max_flows, PORT_WIDTH_BITS, initial=NO_PORT)
    registers.define("pend_type", max_flows, 2)
    registers.define("pend_child_port", max_flows, PORT_WIDTH_BITS, initial=NO_PORT)
    registers.define("pend_flags", max_flows, 4)
    registers.define("pend_flow_size", max_flows, 32)
    # Applied tier (Alg. 2's V_n(v) / D_n(v)).
    registers.define("cur_version", max_flows, VERSION_WIDTH_BITS)
    registers.define("cur_distance", max_flows, DISTANCE_WIDTH_BITS)
    registers.define("cur_egress_port", max_flows, PORT_WIDTH_BITS, initial=NO_PORT)
    # Old/inherited tier (Alg. 2's V_o(v) / D_o(v), §3.2 segment ids).
    registers.define("old_version", max_flows, VERSION_WIDTH_BITS)
    registers.define("old_distance", max_flows, DISTANCE_WIDTH_BITS)
    # Bookkeeping (Table 1).
    registers.define("flow_size", max_flows, 32)
    registers.define("flow_priority", max_flows, 1)
    registers.define("last_type", max_flows, 2)
    registers.define("counter", max_flows, 16)
    # §11 two-phase-commit integration: per-tag forwarding state and
    # the tag the ingress currently stamps.  Mirrors Reitblatt et
    # al.'s observation that 2PC doubles the required rule space.
    registers.define("port_tag0", max_flows, PORT_WIDTH_BITS, initial=NO_PORT)
    registers.define("port_tag1", max_flows, PORT_WIDTH_BITS, initial=NO_PORT)
    registers.define("ingress_tag", max_flows, 1)
    registers.define("two_phase", max_flows, 1)


class FlowIndexAllocator:
    """Dense per-switch flow-id -> register-index mapping.

    Writers allocate (:meth:`index_of`); readers only look up
    (:meth:`lookup`) and treat ``None`` as "every array reads its fill
    value", so packets of flows the switch never carried cannot
    exhaust the arrays.
    """

    def __init__(self, max_flows: int = DEFAULT_MAX_FLOWS) -> None:
        self.max_flows = max_flows
        self._index: dict[int, int] = {}

    def index_of(self, flow_id: int) -> int:
        idx = self._index.get(flow_id)
        if idx is None:
            idx = len(self._index)
            if idx >= self.max_flows:
                raise RuntimeError(
                    f"register arrays full: {self.max_flows} flows supported"
                )
            self._index[flow_id] = idx
        return idx

    def lookup(self, flow_id: int) -> Optional[int]:
        """The flow's index, or None when nothing was written for it."""
        return self._index.get(flow_id)

    def known(self, flow_id: int) -> bool:
        return flow_id in self._index

    def __len__(self) -> int:
        return len(self._index)
