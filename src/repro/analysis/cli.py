"""The ``analyze`` CLI subcommand: lint / plan / pipeline / interference.

Wired into :mod:`repro.harness.cli`; kept here so the harness stays a
thin argument-parsing layer.

* ``analyze lint [paths...]`` — run the sim-purity linter; exits 1 on
  any unsuppressed finding.
* ``analyze plan`` — verify the plans generated by the standard
  fig7/fig8 scenarios (all must pass) and a seeded cyclic-dependency
  plan (must be rejected, with its counterexample path printed);
  exits 0 only when both hold.
* ``analyze pipeline`` — statically analyze the deployed P4Update
  pipeline program; exits 1 on findings.
* ``analyze interference`` — static inter-plan interference analysis
  over a serve spec (or a directory of exported plan JSON files);
  exits 1 on findings unless ``--expect-signature`` pins a known
  findings set.

Every subcommand takes ``--format text|json`` (and ``--out`` to write
the report to a file instead of stdout).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import TYPE_CHECKING, Any, Iterator, Optional, Sequence

from repro.analysis.findings import Finding, format_findings
from repro.sweep.cli import CliError, add_fleet_flags, load_or_exit, run_fleet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.plan import UpdatePlan

#: (label, topology builder name, scenario kind) — the standard
#: fig7/fig8 workloads whose generated plans must verify clean.
STANDARD_SCENARIOS: tuple[tuple[str, str, str], ...] = (
    ("fig1 single", "fig1", "single"),
    ("fig7a/b4 single", "b4", "single"),
    ("fig7b/b4 multi", "b4", "multi"),
    ("fig7e/internet2 single", "internet2", "single"),
    ("fig7f/internet2 multi", "internet2", "multi"),
    ("fig8/attmpls multi", "attmpls", "multi"),
    ("fig8/chinanet multi", "chinanet", "multi"),
)


def default_lint_paths() -> list[str]:
    """The packages under the determinism contract."""
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    return [
        os.path.join(root, pkg)
        for pkg in ("sim", "core", "p4", "obs", "fuzz")
    ]


# -- output formatting --------------------------------------------------------


def _write_report(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)


def _emit_findings(
    args: argparse.Namespace,
    findings: Sequence[Finding] = (),
    document: Optional[Any] = None,
) -> bool:
    """Emit json output when requested; returns True when the
    structured path handled the output (text mode returns False and
    the caller prints its usual human report).  The JSON form is
    ``document`` when given, else the sorted findings."""
    if args.format == "json":
        if document is None:
            ordered = sorted(
                findings, key=lambda f: (f.path, f.line, f.col, f.rule)
            )
            document = [dataclasses.asdict(f) for f in ordered]
        _write_report(
            args, json.dumps(document, indent=2, sort_keys=True) + "\n"
        )
    return args.format != "text"


# -- analyze lint -----------------------------------------------------------------


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.linter import (
        default_rules,
        iter_python_files,
        lint_paths,
        rule_names,
    )

    rules = default_rules()
    if args.select:
        unknown = sorted(set(args.select) - set(rule_names()))
        if unknown:
            raise CliError(
                f"unknown rule(s): {', '.join(unknown)}\n"
                f"available: {', '.join(rule_names())}",
                2,
            )
        rules = [rule for rule in rules if rule.name in set(args.select)]

    paths = args.paths or default_lint_paths()
    errors: list[str] = []

    def on_error(path: str, exc: SyntaxError) -> None:
        errors.append(f"{path}: syntax error: {exc}")

    findings = lint_paths(
        paths, rules, include_suppressed=True, on_error=on_error
    )
    active = [f for f in findings if not f.suppressed]
    suppressed = [f for f in findings if f.suppressed]

    if _emit_findings(args, findings):
        for message in errors:
            print(message, file=sys.stderr)
        return 1 if active or errors else 0
    if active:
        print(format_findings(active))
    for message in errors:
        print(message)
    checked = len(iter_python_files(paths))
    print(
        f"checked {checked} files: {len(active)} finding(s), "
        f"{len(suppressed)} suppressed"
    )
    if args.show_suppressed and suppressed:
        print(format_findings(suppressed))
    return 1 if active or errors else 0


# -- analyze plan ------------------------------------------------------------------


def iter_scenario_plans(topo_name: str, kind: str, seed: int = 0) -> Iterator[tuple]:
    """Yield ``(flow, prepared, plan)`` for one standard scenario.

    Updates are prepared exactly as the experiments do (§7.5 strategy
    picks SL or DL per flow), without running the simulation.
    """
    import numpy as np

    from repro.analysis.plan import plan_from_prepared
    from repro.harness.build import build_p4update_network
    from repro.harness.scenarios import multi_flow_scenario, single_flow_scenario
    from repro.params import SimParams
    from repro.topo import TOPOLOGIES

    topo = TOPOLOGIES[topo_name]()
    rng = np.random.default_rng(seed)
    if kind == "single":
        scenario = single_flow_scenario(topo, rng)
    else:
        scenario = multi_flow_scenario(topo, rng)
    deployment = build_p4update_network(topo, params=SimParams(seed=seed))
    for flow in scenario.flows:
        deployment.install_flow(flow)
    for flow in scenario.flows:
        if flow.new_path is None:
            continue
        record = deployment.controller.flow_db[flow.flow_id]
        prior = record.version
        prepared = deployment.controller.prepare_update(
            flow.flow_id, list(flow.new_path)
        )
        yield flow, prepared, plan_from_prepared(prepared, prior_version=prior)


def seeded_cyclic_plan() -> "UpdatePlan":
    """A deliberately deadlocked DL plan: the notify edges of segment
    {a, b, c} point in a ring, so each install waits for the next."""
    from repro.analysis.plan import PlanInstall, UpdatePlan
    from repro.core.messages import UpdateType

    return UpdatePlan(
        flow_id=999,
        version=2,
        prior_version=1,
        update_type=UpdateType.DUAL,
        installs=(
            PlanInstall("egress", version=2, distance=0, is_flow_egress=True),
            PlanInstall("a", version=2, distance=1, is_gateway=True),
            PlanInstall("b", version=2, distance=2),
            PlanInstall("c", version=2, distance=3, is_ingress=True),
        ),
        notify_edges=(("egress", "a"), ("a", "b"), ("b", "c")),
        # Inter-segment waits wired into a ring: a waits on b, b waits
        # on c, c waits on a.
        dependencies=(("a", "b"), ("b", "c"), ("c", "a")),
        description="seeded cyclic-dependency plan",
    )


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.analysis.plan import verify_plan

    scenarios = STANDARD_SCENARIOS
    if args.quick:
        scenarios = tuple(s for s in scenarios if s[1] in ("fig1", "b4"))

    structured = args.format != "text"
    plan_findings: list[Finding] = []
    total = 0
    failures = 0
    for label, topo_name, kind in scenarios:
        checked = 0
        bad: list[str] = []
        for _flow, _prepared, plan in iter_scenario_plans(topo_name, kind, seed=args.seed):
            report = verify_plan(plan)
            checked += 1
            if not report.ok:
                bad.append(report.describe())
                plan_findings.extend(
                    Finding(
                        rule=f"plan-{violation.kind}",
                        message=violation.message,
                        path=label,
                        line=checked,
                    )
                    for violation in report.violations
                )
        total += checked
        status = "ok" if not bad else "FAIL"
        if not structured:
            print(f"{label:24s} {checked:3d} plan(s) verified: {status}")
            for description in bad:
                print(f"    {description}")
        failures += len(bad)

    cyclic = seeded_cyclic_plan()
    report = verify_plan(cyclic)
    if report.ok:
        failures += 1
        plan_findings.append(
            Finding(
                rule="plan-verifier-miss",
                message="seeded cyclic plan was NOT rejected",
                path="seeded-cyclic",
                line=1,
            )
        )
    elif not report.counterexample:
        failures += 1
        plan_findings.append(
            Finding(
                rule="plan-no-counterexample",
                message="cycle rejected but no counterexample path produced",
                path="seeded-cyclic",
                line=1,
            )
        )
    if structured:
        _emit_findings(args, plan_findings)
        return 0 if failures == 0 else 1

    print()
    print(f"seeded cyclic plan ({cyclic.description}):")
    if report.ok:
        print("    NOT rejected — the verifier missed the deadlock")
    else:
        print(f"    rejected, {len(report.violations)} violation(s)")
        for violation in report.violations:
            print(f"    - {violation.format()}")
        if not report.counterexample:
            print("    but no counterexample path was produced")
        else:
            print(
                f"    counterexample path: "
                f"{' -> '.join(report.counterexample)}"
            )

    print()
    print(
        f"{total} scenario plan(s) verified, "
        f"{'no' if failures == 0 else failures} failure(s)"
    )
    return 0 if failures == 0 else 1


# -- analyze pipeline ---------------------------------------------------------------


def _cmd_pipeline(args: argparse.Namespace) -> int:
    from repro.analysis.pipecheck import analyze_pipeline
    from repro.harness.build import build_p4update_network
    from repro.params import SimParams
    from repro.topo.synthetic import fig1_topology

    deployment = build_p4update_network(fig1_topology(), params=SimParams(seed=args.seed))
    name, switch = sorted(deployment.switches.items())[0]
    findings = analyze_pipeline(switch.program)
    program_name = type(switch.program).__name__
    if _emit_findings(args, findings):
        return 1 if findings else 0
    if findings:
        print(format_findings(findings))
    print(
        f"analyzed {program_name} (deployed at {name!r}): "
        f"{len(findings)} finding(s)"
    )
    return 1 if findings else 0


# -- analyze interference -----------------------------------------------------------


def _load_plan(path: str) -> "UpdatePlan":
    from repro.analysis.plan import plan_from_dict

    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    try:
        return plan_from_dict(doc)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"not a plan document ({type(exc).__name__}: {exc})"
        ) from None


def _load_plans_dir(path: str) -> list:
    """Load every ``*.json`` plan document in a directory (sorted by
    filename so batch indices are stable)."""
    return [
        load_or_exit(
            _load_plan, os.path.join(path, entry), "plan", ValueError, code=2
        )
        for entry in sorted(os.listdir(path))
        if entry.endswith(".json")
    ]


def _cmd_interference(args: argparse.Namespace) -> int:
    from repro.analysis.interference import (
        BatchPolicies,
        detect_interference,
    )

    if os.path.isdir(args.target):
        plans = _load_plans_dir(args.target)
        if not plans:
            raise CliError(f"no *.json plan files under {args.target!r}", 2)
        capacities = None
        if args.capacity is not None:
            capacities = {}
            for plan in plans:
                for path in (plan.old_path, plan.new_path):
                    for edge in zip(path, path[1:]):
                        capacities[edge] = float(args.capacity)
        report = detect_interference(
            plans,
            BatchPolicies(same_flow=args.serialize_same_flow),
            capacities,
            congestion_aware=not args.no_congestion_aware,
            label=os.path.basename(os.path.normpath(args.target)),
        )
    else:
        from repro.serve.cli import load_spec

        spec = load_spec(args.target, code=2)
        if args.seeds > 1:
            return _interference_batch(args, spec)
        from repro.analysis.interference import analyze_serve_spec

        report = analyze_serve_spec(spec)

    if not _emit_findings(
        args, document=dict(report.to_dict(), signature=report.signature())
    ):
        print(report.describe())
        print(f"signature {report.signature()}")
    return _verdict(args, report.signature(), clean=not report.findings)


def _verdict(
    args: argparse.Namespace, signature: str, clean: bool, ran: bool = True
) -> int:
    """Exit code of an analysis that ``ran``: ``--expect-signature``
    decides when given (a pinned findings set), else findings fail."""
    if not args.expect_signature:
        return 0 if ran and clean else 1
    if signature != args.expect_signature:
        print(
            f"SIGNATURE MISMATCH: expected {args.expect_signature}, "
            f"got {signature}",
            file=sys.stderr,
        )
        return 1
    return 0 if ran else 1


def _interference_batch(args: argparse.Namespace, spec) -> int:
    """Fan the analysis out as a kind-"interference" sweep (one shard
    per seeded workload replica, shardable/resumable like any fleet)."""
    from repro.serve.sweep_kind import serve_sweep

    results = run_fleet(serve_sweep(spec, args.seeds, kind="interference"), args)
    aggregates = results["aggregates"]
    print(f"interference {spec.name!r}: {aggregates['runs']} seeded "
          f"batch(es), {aggregates['plans']} plan(s), "
          f"{aggregates['findings']} finding(s)")
    for kind, count in aggregates["findings_by_kind"].items():
        print(f"    {kind:<22s} {count}")
    print(f"signature {results['signature']}")
    return _verdict(args, results["signature"], aggregates["clean"],
                    not results["failures"])


# -- parser wiring ------------------------------------------------------------------


def _add_format_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format",
    )
    parser.add_argument(
        "--out", default=None,
        help="write the report to this file instead of stdout",
    )


def add_analyze_parser(sub: argparse._SubParsersAction) -> None:
    """Attach the ``analyze`` subcommand tree to the main parser."""
    parser = sub.add_parser(
        "analyze",
        help="static verification: lint / plan / pipeline / interference",
    )
    asub = parser.add_subparsers(dest="analyze_command", required=True)

    lint = asub.add_parser(
        "lint", help="sim-purity linter over the given files/directories"
    )
    lint.set_defaults(run=_cmd_lint)
    lint.add_argument(
        "paths", nargs="*",
        help="files or directories (default: repro.sim/core/p4/obs)",
    )
    lint.add_argument(
        "--select", action="append", metavar="RULE",
        help="run only this rule (repeatable)",
    )
    lint.add_argument(
        "--show-suppressed", action="store_true",
        help="also list findings silenced by ignore comments",
    )
    _add_format_args(lint)

    plan = asub.add_parser(
        "plan", help="verify fig7/fig8 scenario plans + reject a seeded cycle"
    )
    plan.set_defaults(run=_cmd_plan)
    plan.add_argument(
        "--quick", action="store_true",
        help="only the fig1/b4 scenarios (fast smoke)",
    )
    _add_format_args(plan)

    pipe = asub.add_parser(
        "pipeline", help="static checks over the deployed pipeline program"
    )
    pipe.set_defaults(run=_cmd_pipeline)
    _add_format_args(pipe)

    inter = asub.add_parser(
        "interference",
        help="static inter-plan interference analysis over a serve spec "
             "or a directory of plan JSON files",
    )
    inter.set_defaults(run=_cmd_interference)
    inter.add_argument(
        "target",
        help="serve spec JSON file, or a directory of plan documents "
             "(repro.analysis.plan.plan_to_dict output)",
    )
    inter.add_argument(
        "--capacity", type=float, default=None,
        help="uniform link capacity for directory mode (serve specs "
             "carry their own topology capacities)",
    )
    inter.add_argument(
        "--serialize-same-flow", action="store_true",
        help="directory mode: assume same-flow plans execute serially "
             "(the orchestrator's structural guarantee)",
    )
    inter.add_argument(
        "--no-congestion-aware", action="store_true",
        help="directory mode: analyze without the §7.4 data-plane "
             "congestion scheduler (capacity races become "
             "link-overcommit instead of deadlock analysis)",
    )
    inter.add_argument(
        "--expect-signature", default=None,
        help="exit 0 iff the findings signature equals this SHA-256 "
             "(CI pin for known-conflicting specs)",
    )
    inter.add_argument(
        "--seeds", type=int, default=1,
        help="analyze N seeded workload replicas via the sweep fleet "
             "(--workers/--resume/--cache-dir apply when N > 1)",
    )
    add_fleet_flags(inter)
    _add_format_args(inter)
