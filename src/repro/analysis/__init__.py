"""Static verification layer (no simulation required).

Four checkers, all runnable before (or instead of) executing anything:

* :mod:`repro.analysis.linter` + :mod:`repro.analysis.rules` — the
  sim-purity linter: AST rules that flag determinism hazards
  (wall-clock reads, unseeded randomness, set-iteration order,
  unguarded observability calls) in the
  packages covered by the reproducibility contract;
* :mod:`repro.analysis.plan` — the update-plan verifier: checks a
  prepared SL-/DL-P4Update plan's notification DAG for deadlock
  cycles, orphaned installs, missing ack edges and version-number
  regressions, emitting a concrete counterexample path on failure;
* :mod:`repro.analysis.pipecheck` — the pipeline static analyzer:
  inspects a behavioural P4 program's ingress pass for registers read
  but never written, registers it never defines, and resubmit loops
  no switch caps;
* :mod:`repro.analysis.interference` — the inter-plan interference
  analyzer: orders a batch of plans by the orchestrator's
  serialization policies and reports the slot races, transient loops
  and blackholes, link overcommits and scheduler deadlocks that the
  pairs left unordered can interleave into.

The ``analyze`` CLI subcommand (``p4update-repro analyze lint|plan|
pipeline|interference``) fronts all four; :data:`repro.params.SimParams.
verify_update_plans` turns the plan verifier into a pre-execution
gate inside :class:`repro.core.controller.P4UpdateController`.
"""
