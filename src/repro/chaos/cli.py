"""The ``chaos`` CLI subcommand: run / validate fault campaigns.

Wired into :mod:`repro.harness.cli`; kept here so the harness stays a
thin argument-parsing layer.

* ``chaos run <spec.json> [--runs N]`` — execute a campaign N times
  with the same seed and assert (a) zero consistency violations on
  every run, (b) every flow either completed or parked with a report,
  and (c) bit-identical event-trace signatures across runs (the
  determinism contract).  Exits 1 when any of the three fails.
* ``chaos validate <spec.json>`` — load and echo a campaign without
  running it; exits 1 on schema errors.
"""

from __future__ import annotations

import argparse

from repro.chaos.campaign import load_campaign_file
from repro.obs.manifest import write_manifest
from repro.sweep.cli import (
    BENCH_DIR_HELP,
    add_fleet_flags,
    add_output_flags,
    load_or_exit,
    report_ok,
    run_fleet,
)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.chaos.sweep_kind import campaign_sweep

    campaign = load_or_exit(
        load_campaign_file, args.spec, "campaign", ValueError, TypeError
    )
    if campaign.description:
        print(f"# {campaign.description}")

    # The N same-seed repetitions are a chaos-kind sweep fleet: each
    # run is one shard, executed in a worker process (or inline with
    # --workers 1, the serial path the runner always had).
    run, fleet = run_fleet(
        campaign_sweep(campaign, args.runs, obs=args.obs), args
    )
    docs = fleet["shards"]
    for doc in docs:
        results = doc["results"]
        status = "CONSISTENT" if results["consistent"] else "VIOLATIONS"
        print(
            f"run {doc['index'] + 1}/{args.runs}: {campaign.name}: "
            f"{results['flows_completed']}/{results['flows_total']} flows "
            f"completed, {results['flows_parked']} parked, "
            f"{len(results['violations'])} violations [{status}], "
            f"signature {results['trace_signature'][:16]}"
        )

    ok = run.ok
    for doc in docs:
        results = doc["results"]
        if not results["consistent"]:
            ok = False
            for violation in results["violations"]:
                print(
                    f"VIOLATION t={violation['time']:.3f} "
                    f"{violation['kind']} flow={violation['flow_id']}: "
                    f"{violation['detail']}"
                )
        if not results["completed"]:
            ok = False
            stuck = (results["flows_total"] - results["flows_completed"]
                     - results["flows_parked"])
            print(f"INCOMPLETE: {stuck} flow(s) neither completed nor parked")
    if not fleet["aggregates"]["deterministic"]:
        ok = False
        print(f"NON-DETERMINISTIC: "
              f"{fleet['aggregates']['distinct_trace_signatures']} "
              f"distinct trace signatures")
    if docs:
        for report in docs[0]["results"]["parked_reports"]:
            print(
                f"parked flow {report['flow_id']} at {report['time_ms']:.1f} ms: "
                f"{report['reason']} (failed edges: {report['failed_edges']})"
            )
        if args.manifest:
            path = write_manifest(
                f"chaos_{campaign.name}",
                params=campaign.to_dict(),
                results=docs[0]["results"],
                seed=campaign.seed,
                out_dir=args.out_dir,
            )
            print(f"wrote {path}")
    return report_ok(ok)


def _cmd_validate(args: argparse.Namespace) -> int:
    campaign = load_or_exit(
        load_campaign_file, args.spec, "campaign", ValueError, TypeError
    )
    print(campaign.to_json())
    return 0


def add_chaos_parser(sub: argparse._SubParsersAction) -> None:
    parser = sub.add_parser(
        "chaos", help="robustness: run fault-injection campaigns"
    )
    chaos_sub = parser.add_subparsers(dest="chaos_command", required=True)
    prun = chaos_sub.add_parser(
        "run", help="execute a campaign and assert invariants + determinism"
    )
    prun.set_defaults(run=_cmd_run)
    prun.add_argument("spec", help="path to a campaign JSON file")
    prun.add_argument(
        "--runs", type=int, default=2,
        help="same-seed repetitions for the determinism check (default 2)",
    )
    # Every repetition must really re-run: no --resume.
    add_fleet_flags(prun, resume=False)
    add_output_flags(
        prun,
        obs="instrument runs with live metrics (fault/retry/recovery counters)",
        manifest="write a BENCH_-style manifest for the first run",
        out_dir=BENCH_DIR_HELP.format("chaos"),
    )
    pval = chaos_sub.add_parser("validate", help="load and echo a campaign spec")
    pval.set_defaults(run=_cmd_validate)
    pval.add_argument("spec", help="path to a campaign JSON file")
