"""Consistency properties (paper §5): blackhole, loop and congestion
freedom — checked over evolving forwarding state."""

from repro.consistency.state import ForwardingState
from repro.consistency.checker import (
    CheckResult,
    check_blackhole_freedom,
    check_congestion_freedom,
    check_loop_freedom,
    LiveChecker,
)

__all__ = [
    "ForwardingState",
    "CheckResult",
    "check_blackhole_freedom",
    "check_loop_freedom",
    "check_congestion_freedom",
    "LiveChecker",
]
