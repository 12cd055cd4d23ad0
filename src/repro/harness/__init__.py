"""Experiment harness: network builders, scenarios, probes, metrics."""

from repro.harness.analysis import MessageStats, count_messages
from repro.harness.build import Deployment, build_p4update_network
from repro.harness.experiment import ExperimentResult, run_experiment
from repro.harness.metrics import cdf_points, improvement, summarize
from repro.harness.scenarios import multi_flow_scenario, single_flow_scenario

__all__ = [
    "MessageStats",
    "count_messages",
    "Deployment",
    "build_p4update_network",
    "ExperimentResult",
    "run_experiment",
    "cdf_points",
    "improvement",
    "summarize",
    "multi_flow_scenario",
    "single_flow_scenario",
]
