"""Static verification layer (no simulation required).

Three checkers, all runnable before (or instead of) executing anything:

* :mod:`repro.analysis.linter` + :mod:`repro.analysis.rules` — the
  sim-purity linter: AST rules that flag determinism hazards
  (wall-clock reads, unseeded randomness, set-iteration order,
  mutable default arguments, unguarded observability calls) in the
  packages covered by the reproducibility contract;
* :mod:`repro.analysis.plan` — the update-plan verifier: checks a
  prepared SL-/DL-P4Update plan's notification DAG for deadlock
  cycles, orphaned installs, missing ack edges and version-number
  regressions, emitting a concrete counterexample path on failure;
* :mod:`repro.analysis.pipecheck` — the pipeline static analyzer:
  inspects a behavioural P4 program's ingress pass for registers read
  but never written, registers it never defines, and resubmit loops
  no switch caps.

The ``analyze`` CLI subcommand (``p4update-repro analyze lint|plan|
pipeline``) fronts all three; :data:`repro.params.SimParams.
verify_update_plans` turns the plan verifier into a pre-execution
gate inside :class:`repro.core.controller.P4UpdateController`.
"""

from repro.analysis.findings import Finding, format_findings
from repro.analysis.linter import (
    DEFAULT_RULES,
    LintContext,
    LintRule,
    lint_paths,
    lint_source,
    register_rule,
    rule_names,
)
from repro.analysis.pipecheck import analyze_pipeline
from repro.analysis.plan import (
    PlanInstall,
    PlanReport,
    PlanVerificationError,
    PlanViolation,
    UpdatePlan,
    plan_from_prepared,
    verify_plan,
)

__all__ = [
    "DEFAULT_RULES",
    "Finding",
    "LintContext",
    "LintRule",
    "PlanInstall",
    "PlanReport",
    "PlanVerificationError",
    "PlanViolation",
    "UpdatePlan",
    "analyze_pipeline",
    "format_findings",
    "lint_paths",
    "lint_source",
    "plan_from_prepared",
    "register_rule",
    "rule_names",
    "verify_plan",
]
