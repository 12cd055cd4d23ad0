"""Topology-level fault injection and recovery (paper §11).

The subsystem has four parts:

* failure events in the sim layer (:mod:`repro.sim.network`):
  link down/up, switch crash/restart, controller outage windows;
* reliable control delivery (:mod:`repro.chaos.reliable`):
  sequence-numbered sends with ack tracking, seeded exponential
  backoff and receiver-side dedup;
* controller recovery (:mod:`repro.core.controller`): abort affected
  pending updates with Flow-DB rollback, reroute around the failed
  element, or park the flow with a structured report;
* declarative chaos campaigns (:mod:`repro.chaos.campaign`) executed
  by :mod:`repro.chaos.runner` and the ``repro chaos`` CLI.
"""
