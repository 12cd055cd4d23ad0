"""Experiment harness: network builders, scenarios, probes, metrics."""
