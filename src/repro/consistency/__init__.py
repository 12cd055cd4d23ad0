"""Consistency properties (paper §5): blackhole, loop and congestion
freedom — checked over evolving forwarding state."""
