"""Traffic generation: flows, paths, and the gravity traffic model."""

from repro.traffic.paths import second_shortest_path

__all__ = ["second_shortest_path"]
