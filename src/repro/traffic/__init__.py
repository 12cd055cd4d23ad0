"""Traffic generation: flows, paths, and the gravity traffic model."""
