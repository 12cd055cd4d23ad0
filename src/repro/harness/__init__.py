"""Experiment harness: network builders, scenarios, probes, metrics."""

from repro.harness.build import build_p4update_network

__all__ = ["build_p4update_network"]
