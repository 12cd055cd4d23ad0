"""The oracle layer: run one fuzz case through the platform's checks.

Each case kind maps onto oracles the repo already trusts:

* ``plan`` — the PR 2 static verifier (:func:`verify_plan`) plus the
  PR 7 interference analyzer (:func:`detect_interference`).  When the
  case carries an advgen expectation (a known injected conflict kind,
  or "provably disjoint"), a contradiction between that ground truth
  and the analyzer is classified ``divergence`` — a detector bug, the
  most severe find this oracle can make.
* ``chaos`` — a full seeded :func:`run_campaign` simulation; the live
  checker's trace invariants plus the completion liveness property
  (every flow completes or is parked with a report).
* ``serve`` — a full :func:`run_service` run; live-checker violations
  plus the service's ``invariants_ok`` record audit.
* ``divergence`` — the same seeded scenario executed under two
  systems (SL vs DL, P4Update vs ez-Segway); their completion and
  consistency verdicts must agree.
* ``ops`` — a full :func:`~repro.ops.session.run_session` operations
  session; live-checker violations, the record invariants audit, and
  the move state machine's no-stranded-flows property (a flow a drain
  or migration left in limbo is always a bug, whatever the topology
  did meanwhile).
* ``compete`` — one seeded serve workload replayed under two or three
  registered update strategies (:mod:`repro.algos`).  Per strategy the
  live checker and invariants audit run as usual; across strategies
  the final per-flow routes are compared — but only between strategy
  pairs whose per-flow completed-toggle counts match.  Strategies
  legitimately finish different request subsets (aborts, parks,
  deadlocks change path parity), so raw route diffs are noise; equal
  toggle counts make the comparison exact, and any remaining
  difference is a genuine cross-strategy ``divergence``.

Outcomes: ``pass`` (all checks hold), ``violation`` (an invariant was
tripped), ``divergence`` (two oracles disagree), ``crash`` (a
generator/oracle raised — contained by :func:`classify`, never
aborting a campaign).  Every verdict carries the coverage keys that
drive corpus retention (:mod:`repro.fuzz.coverage`).
"""

from __future__ import annotations

import dataclasses
import traceback
from dataclasses import dataclass, field
from typing import Any


from repro.fuzz.coverage import obs_coverage_keys
from repro.fuzz.gen import FUZZ_KINDS, FuzzCase
from repro.sim.reset import reset_global_state

#: Classification outcomes, from best to worst.
OUTCOMES = ("pass", "violation", "divergence", "crash")


@dataclass(frozen=True)
class OracleVerdict:
    """The classified outcome of one case evaluation."""

    outcome: str
    oracle: str
    kinds: tuple[str, ...] = ()
    coverage: tuple[str, ...] = ()
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "oracle": self.oracle,
            "kinds": list(self.kinds),
            "coverage": list(self.coverage),
            "detail": dict(self.detail),
        }


def verdict_from_dict(data: dict) -> OracleVerdict:
    return OracleVerdict(
        outcome=str(data["outcome"]),
        oracle=str(data["oracle"]),
        kinds=tuple(str(k) for k in data.get("kinds", ())),
        coverage=tuple(str(k) for k in data.get("coverage", ())),
        detail=dict(data.get("detail", {})),
    )


def failure_key(case_kind: str, verdict: OracleVerdict) -> tuple[str, ...]:
    """The identity of a finding: what "the same bug again" means.

    Coarse on purpose — shrunk payloads of one root cause differ
    byte-wise across seeds, but their (case kind, outcome, oracle,
    violation kinds) fingerprint is stable.
    """
    return (case_kind, verdict.outcome, verdict.oracle) + tuple(verdict.kinds)


def classify(case: FuzzCase) -> OracleVerdict:
    """Evaluate with crash containment: an oracle exception becomes a
    structured ``crash`` verdict instead of aborting the campaign."""
    try:
        return evaluate_case(case)
    except Exception as exc:
        tb = traceback.format_exc()
        error = type(exc).__name__
        return OracleVerdict(
            outcome="crash",
            oracle="oracle",
            kinds=(error,),
            coverage=(f"crash:{case.kind}:{error}",),
            detail={"message": str(exc), "traceback_tail": tb[-2000:]},
        )


def evaluate_case(case: FuzzCase) -> OracleVerdict:
    """Run the kind-appropriate oracle stack (may raise)."""
    if case.kind not in FUZZ_KINDS:
        raise ValueError(f"unknown fuzz case kind {case.kind!r}")
    # Fresh global state per case: a case's verdict must not depend on
    # its position in a campaign, or shrinking/replay would diverge
    # from the original classification.
    reset_global_state()
    if case.kind == "plan":
        return _evaluate_plan(case.payload)
    if case.kind == "chaos":
        return _evaluate_chaos(case.payload)
    if case.kind == "serve":
        return _evaluate_serve(case.payload)
    if case.kind == "ops":
        return _evaluate_ops(case.payload)
    if case.kind == "compete":
        return _evaluate_compete(case.payload)
    return _evaluate_divergence(case.payload)


# -- plan --------------------------------------------------------------------


def _evaluate_plan(payload: dict) -> OracleVerdict:
    from repro.analysis.interference import BatchPolicies, detect_interference
    from repro.analysis.plan import plan_from_dict, verify_plan

    plans = [plan_from_dict(doc) for doc in payload["plans"]]
    plan_kinds = sorted(
        {v.kind for plan in plans for v in verify_plan(plan).violations}
    )
    policies_doc = dict(payload.get("policies", {}))
    policies = BatchPolicies(
        same_flow=bool(policies_doc.get("same_flow", False)),
        shared_switch=bool(policies_doc.get("shared_switch", False)),
        max_in_flight=int(policies_doc.get("max_in_flight", 0)),
        extra_order=tuple(
            (int(a), int(b)) for a, b in policies_doc.get("extra_order", ())
        ),
    )
    capacities = {
        tuple(key.split("|", 1)): float(cap)
        for key, cap in sorted(payload.get("capacities", {}).items())
    }
    finding_kinds: list[str] = []
    if len(plans) >= 2:
        report = detect_interference(
            plans,
            policies,
            capacities,  # type: ignore[arg-type]
            congestion_aware=bool(payload.get("congestion_aware", True)),
            label="fuzz",
        )
        finding_kinds = sorted({f.kind for f in report.findings})

    kinds = tuple(
        [f"plan:{k}" for k in plan_kinds]
        + [f"interference:{k}" for k in finding_kinds]
    )
    coverage = list(kinds)
    detail: dict[str, Any] = {
        "plans": len(plans),
        "plan_violations": plan_kinds,
        "interference_findings": finding_kinds,
    }

    expect = payload.get("expect_kind")
    if expect is not None:
        expect = str(expect)
        detail["expect_kind"] = expect
        if expect and expect not in finding_kinds:
            return OracleVerdict(
                outcome="divergence",
                oracle="advgen-expectation",
                kinds=(f"missed:{expect}",),
                coverage=tuple(coverage + [f"advgen:missed:{expect}"]),
                detail=detail,
            )
        if not expect and finding_kinds:
            return OracleVerdict(
                outcome="divergence",
                oracle="advgen-expectation",
                kinds=tuple(f"false-positive:{k}" for k in finding_kinds),
                coverage=tuple(coverage + ["advgen:false-positive"]),
                detail=detail,
            )
    if kinds:
        return OracleVerdict(
            outcome="violation",
            oracle="static",
            kinds=kinds,
            coverage=tuple(coverage),
            detail=detail,
        )
    return OracleVerdict(
        outcome="pass",
        oracle="static",
        coverage=("plan:clean",),
        detail=detail,
    )


# -- chaos -------------------------------------------------------------------


def _evaluate_chaos(payload: dict) -> OracleVerdict:
    from repro.chaos.campaign import load_campaign
    from repro.chaos.runner import run_campaign
    from repro.obs.context import make_obs

    campaign = load_campaign(dict(payload["campaign"]))
    obs = make_obs()
    try:
        result = run_campaign(campaign, obs=obs)
    except RuntimeError as exc:
        # Workload generation can legitimately fail (no feasible
        # near-capacity reroute); same seed -> same failure, so this
        # is a deterministic non-finding, not a crash.
        return OracleVerdict(
            outcome="pass",
            oracle="chaos",
            coverage=("chaos:scenario-infeasible",),
            detail={"scenario_error": str(exc)},
        )

    kinds = sorted({f"chaos:{v['kind']}" for v in result.violations})
    if not result.completed:
        kinds.append("chaos:incomplete")
    coverage = list(kinds)
    if result.flows_parked:
        coverage.append("chaos:parked")
    if result.reroutes:
        coverage.append("chaos:reroutes")
    if result.retransmissions:
        coverage.append("chaos:retransmissions")
    if result.retry_exhausted:
        coverage.append("chaos:retry-exhausted")
    for plane in sorted(result.fault_counts):
        for fault_kind, count in sorted(result.fault_counts[plane].items()):
            if count:
                coverage.append(f"chaos:fault:{plane}:{fault_kind}")
    coverage.extend(obs_coverage_keys(obs))
    detail = {
        "flows_total": result.flows_total,
        "flows_completed": result.flows_completed,
        "flows_parked": result.flows_parked,
        "violations": len(result.violations),
        "trace_signature": result.trace_signature,
    }
    return OracleVerdict(
        outcome="violation" if kinds else "pass",
        oracle="chaos",
        kinds=tuple(kinds),
        coverage=tuple(sorted(set(coverage))),
        detail=detail,
    )


# -- serve -------------------------------------------------------------------


def _evaluate_serve(payload: dict) -> OracleVerdict:
    from repro.obs.context import make_obs
    from repro.serve.service import run_service
    from repro.serve.spec import load_serve_spec

    spec = load_serve_spec(dict(payload["serve"]))
    obs = make_obs()
    result = run_service(spec, obs=obs)

    kinds = sorted({f"serve:{v['kind']}" for v in result.violations})
    if not result.invariants_ok:
        kinds.append("serve:invariants")
    coverage = list(kinds)
    for outcome_kind, count in sorted(result.outcome_counts.items()):
        if count:
            coverage.append(f"serve:outcome:{outcome_kind}")
    for event in result.interference:
        coverage.append(f"serve:gate:{event.get('action')}")
    coverage.extend(obs_coverage_keys(obs))
    detail = {
        "requests": len(result.records),
        "outcomes": dict(sorted(result.outcome_counts.items())),
        "violations": len(result.violations),
        "invariants_ok": result.invariants_ok,
        "signature": result.signature(),
    }
    return OracleVerdict(
        outcome="violation" if kinds else "pass",
        oracle="serve",
        kinds=tuple(kinds),
        coverage=tuple(sorted(set(coverage))),
        detail=detail,
    )


# -- ops ---------------------------------------------------------------------


def _evaluate_ops(payload: dict) -> OracleVerdict:
    from repro.obs.context import make_obs
    from repro.ops.session import run_session
    from repro.ops.spec import load_session_spec

    spec = load_session_spec(dict(payload["ops"]))
    obs = make_obs()
    result = run_session(spec, obs=obs)
    summary = result.ops_summary()

    kinds = sorted({f"ops:{v['kind']}" for v in result.violations})
    if not result.invariants_ok:
        kinds.append("ops:invariants")
    if summary["moves_by_outcome"].get("stranded"):
        # A move whose install completed but whose flow record never
        # converged: the one outcome that is a bug by definition.
        kinds.append("ops:stranded")
    coverage = list(kinds)
    for outcome_kind, count in sorted(result.outcome_counts.items()):
        if count:
            coverage.append(f"ops:outcome:{outcome_kind}")
    for status, count in sorted(summary["ops_by_status"].items()):
        if count:
            coverage.append(f"ops:op:{status}")
    for move_outcome, count in sorted(summary["moves_by_outcome"].items()):
        if count:
            coverage.append(f"ops:move:{move_outcome}")
    if not summary["drains_clean"]:
        coverage.append("ops:drain-dirty")
    coverage.extend(obs_coverage_keys(obs))
    detail = {
        "requests": len(result.records),
        "outcomes": dict(sorted(result.outcome_counts.items())),
        "ops": summary,
        "violations": len(result.violations),
        "invariants_ok": result.invariants_ok,
        "signature": result.signature(),
    }
    return OracleVerdict(
        outcome="violation" if kinds else "pass",
        oracle="ops",
        kinds=tuple(kinds),
        coverage=tuple(sorted(set(coverage))),
        detail=detail,
    )


# -- compete -----------------------------------------------------------------


def _evaluate_compete(payload: dict) -> OracleVerdict:
    from repro.serve.model import OUTCOME_COMPLETED
    from repro.serve.service import run_service
    from repro.serve.spec import load_serve_spec

    serve = dict(payload["serve"])
    strategies = [str(s) for s in payload["strategies"]]
    runs: dict[str, dict[str, Any]] = {}
    routes: dict[str, dict[str, list[str]]] = {}
    toggles: dict[str, dict[str, int]] = {}
    kinds: list[str] = []
    coverage: list[str] = []
    for strategy in strategies:
        # Fresh global state per strategy run: each replay must look
        # exactly like it ran alone (the sweep worker's discipline).
        reset_global_state()
        spec = load_serve_spec(dict(serve, strategy=strategy))
        result = run_service(spec)
        per_flow: dict[str, int] = {}
        for record in result.records:
            if record["outcome"] == OUTCOME_COMPLETED:
                flow = str(record["flow_id"])
                per_flow[flow] = per_flow.get(flow, 0) + 1
        toggles[strategy] = per_flow
        routes[strategy] = {
            str(flow): list(path)
            for flow, path in sorted(result.routes.items())
        }
        violation_kinds = sorted({str(v["kind"]) for v in result.violations})
        runs[strategy] = {
            "outcomes": dict(sorted(result.outcome_counts.items())),
            "violations": len(result.violations),
            "violation_kinds": violation_kinds,
            "invariants_ok": bool(result.invariants_ok),
            "completed_toggles": per_flow,
        }
        kinds.extend(f"compete:{k}" for k in violation_kinds)
        if not result.invariants_ok:
            kinds.append("compete:invariants")
        for outcome_kind, count in sorted(result.outcome_counts.items()):
            if count:
                coverage.append(f"compete:{strategy}:outcome:{outcome_kind}")

    mismatches: list[str] = []
    divergent: dict[str, list[str]] = {}
    for i, a in enumerate(strategies):
        for b in strategies[i + 1:]:
            # The guarded comparison: final routes are only comparable
            # when both strategies committed the same number of toggles
            # per flow.  After a differing abort/park/deadlock the path
            # parity legitimately differs — that asymmetry is the
            # scoreboard's business, not a consistency finding.
            if toggles[a] != toggles[b]:
                coverage.append(f"compete:incomparable:{a}|{b}")
                continue
            flows = [
                flow for flow in sorted(set(routes[a]) | set(routes[b]))
                if routes[a].get(flow) != routes[b].get(flow)
            ]
            if flows:
                mismatches.append(f"route-divergence:{a}|{b}")
                divergent[f"{a}|{b}"] = flows

    detail: dict[str, Any] = {"strategies": runs}
    if divergent:
        detail["divergent_flows"] = divergent
        detail["routes"] = routes
    coverage.extend(kinds)
    if mismatches:
        mismatch_kinds = tuple(sorted(mismatches))
        return OracleVerdict(
            outcome="divergence",
            oracle="cross-strategy",
            kinds=mismatch_kinds,
            coverage=tuple(sorted(
                set(coverage) | {f"compete:{m}" for m in mismatch_kinds}
            )),
            detail=detail,
        )
    if kinds:
        return OracleVerdict(
            outcome="violation",
            oracle="cross-strategy",
            kinds=tuple(sorted(set(kinds))),
            coverage=tuple(sorted(set(coverage))),
            detail=detail,
        )
    coverage.append("compete:agree")
    return OracleVerdict(
        outcome="pass",
        oracle="cross-strategy",
        coverage=tuple(sorted(set(coverage))),
        detail=detail,
    )


# -- divergence --------------------------------------------------------------


def _evaluate_divergence(payload: dict) -> OracleVerdict:
    from repro.harness.experiment import run_experiment
    from repro.harness.sweep_kind import seeded_scenario
    from repro.params import SimParams

    seed = int(payload["seed"])
    try:
        scenario = seeded_scenario(
            str(payload["topology"]), str(payload.get("scenario", "single")), seed
        )
    except RuntimeError as exc:
        return OracleVerdict(
            outcome="pass",
            oracle="cross-system",
            coverage=("div:scenario-infeasible",),
            detail={"scenario_error": str(exc)},
        )

    params = SimParams(seed=seed)
    overrides = dict(payload.get("params", {}))
    if overrides:
        params = dataclasses.replace(params, **overrides)
    congestion_aware = bool(payload.get("congestion_aware", True))

    systems = [str(s) for s in payload["systems"]]
    summaries: dict[str, dict[str, Any]] = {}
    coverage: list[str] = []
    for system in systems:
        reset_global_state()
        result = run_experiment(
            system, scenario, params=params, congestion_aware=congestion_aware
        )
        summaries[system] = {
            "completed": bool(result.completed),
            "consistency_ok": bool(result.consistency_ok),
            "violations": int(result.violations),
        }
        coverage.append(
            f"div:{system}:{'completed' if result.completed else 'incomplete'}"
        )
        if result.violations:
            coverage.append(f"div:{system}:violations")

    a, b = systems[0], systems[1]
    mismatches: list[str] = []
    for field_name in ("completed", "consistency_ok"):
        if summaries[a][field_name] != summaries[b][field_name]:
            mismatches.append(f"mismatch:{field_name}")
    if (summaries[a]["violations"] > 0) != (summaries[b]["violations"] > 0):
        mismatches.append("mismatch:violations")

    detail: dict[str, Any] = {"systems": summaries, "scenario": scenario.description}
    if mismatches:
        kinds = tuple(sorted(mismatches))
        return OracleVerdict(
            outcome="divergence",
            oracle="cross-system",
            kinds=kinds,
            coverage=tuple(sorted(set(coverage + [f"div:{m}" for m in kinds]))),
            detail=detail,
        )
    if summaries[a]["violations"] and summaries[b]["violations"]:
        return OracleVerdict(
            outcome="violation",
            oracle="cross-system",
            kinds=("both-systems-violate",),
            coverage=tuple(sorted(set(coverage + ["div:both-violations"]))),
            detail=detail,
        )
    coverage.append("div:agree")
    return OracleVerdict(
        outcome="pass",
        oracle="cross-system",
        coverage=tuple(sorted(set(coverage))),
        detail=detail,
    )
