"""Experiment harness: network builders, scenarios, probes, metrics."""

from repro.harness.analysis import MessageStats, watch_messages
from repro.harness.build import Deployment, build_p4update_network
from repro.harness.experiment import ExperimentResult, run_experiment
from repro.harness.metrics import summarize
from repro.harness.scenarios import multi_flow_scenario, single_flow_scenario

__all__ = [
    "MessageStats",
    "watch_messages",
    "Deployment",
    "build_p4update_network",
    "ExperimentResult",
    "run_experiment",
    "summarize",
    "multi_flow_scenario",
    "single_flow_scenario",
]
