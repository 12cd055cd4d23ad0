"""The ``compete`` CLI subcommand: validate / run / duel.

* ``compete validate <spec.json>`` — load the serve workload spec,
  resolve the strategy list, run nothing;
* ``compete run <spec.json>`` — fan one seeded workload across every
  selected strategy through the sweep executor (kind ``"compete"``,
  strategy-independent shard seeds: the paired design) and write one
  ``BENCH_compete_<name>.json`` scoreboard.  ``--workers``,
  ``--resume`` and ``--cache-dir`` work exactly as for ``sweep run``;
  the manifest is byte-identical for any worker count.
* ``compete duel`` — run the advgen slack-deadlock suite
  (:func:`repro.algos.duel.run_duel`): with spare helper capacity the
  ``augmented`` strategy must complete pairs every baseline parks on.
"""

from __future__ import annotations

import argparse
from typing import Optional

from repro.serve.cli import load_spec
from repro.sweep.cli import (
    BENCH_DIR_HELP,
    CliError,
    add_fleet_flags,
    add_output_flags,
    obs_from_flags,
    report_ok,
    run_fleet,
    write_fleet_manifest,
)


def _strategies(arg: Optional[str]) -> list[str]:
    """Parse ``--strategies a,b,c`` (None -> every registered one)."""
    from repro.algos.registry import system_names

    if not arg:
        return system_names()
    chosen = [name.strip() for name in arg.split(",") if name.strip()]
    known = system_names()
    unknown = [name for name in chosen if name not in known]
    if unknown:
        raise CliError(f"unknown strategy(ies) {unknown}; known: {known}")
    return chosen


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.algos.registry import system_row
    from repro.serve.sweep_kind import serve_sweep

    spec = load_spec(args.spec)
    strategies = _strategies(args.strategies)
    # Exercise the full sweep-spec validation path too (what run uses).
    serve_sweep(spec, 1, kind="compete", strategies=strategies)
    print(f"compete spec {spec.name!r} is valid:")
    print(f"  workload:   {spec.mode}-loop, {spec.requests} requests over "
          f"{spec.flows} flows on {spec.topology}")
    print(f"  strategies: {len(strategies)}")
    for name in strategies:
        row = system_row(name)
        flags = ", ".join(
            name for name, on in row.capabilities().items() if on
        ) or "-"
        print(f"    {name:<14s} [{flags}] {row.description}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.serve.sweep_kind import serve_sweep

    spec = load_spec(args.spec)
    strategies = _strategies(args.strategies)
    sweep = serve_sweep(
        spec, args.seeds, kind="compete", obs=args.obs, strategies=strategies
    )
    obs = obs_from_flags(args)
    run, results = run_fleet(
        sweep, args, obs,
        banner=f"compete {spec.name!r}: {len(strategies)} strategy(ies) x "
               f"{args.seeds} seed(s)",
    )
    # The scoreboard manifest is a byte-identity gate across worker
    # counts (bench_compare --exact '*'), so host-time bookkeeping
    # stays out of the results tree entirely.
    results["shards"] = [
        {name: value for name, value in shard.items() if name != "wall"}
        for shard in results["shards"]
    ]
    write_fleet_manifest(f"compete_{spec.name}", sweep, results, args, obs)
    aggregates = results["aggregates"]
    print(f"signature {results['signature']}")
    print(f"paired workloads: {aggregates['paired']}  "
          f"deterministic: {aggregates['deterministic']}")
    for name in aggregates["strategies"]:
        row = aggregates["scoreboard"][name]
        e2e = row["slo_e2e_ms"]
        p99 = e2e.get("p99")
        print(f"  {name:<14s} completed {row['completed']:>4d}/"
              f"{row['requests']:<4d} "
              f"tput {row['mean_throughput_per_s']:>7.1f}/s "
              f"p99 {p99 if p99 is not None else '-':>8} ms "
              f"deadlock {row['deadlock_rate']:.2f} "
              f"park {row['park_rate']:.2f} "
              f"abort {row['abort_rate']:.2f} "
              f"viol {row['violations']}")
    return report_ok(
        run.ok
        and aggregates["consistent"]
        and all(
            row["invariants_ok"]
            for row in aggregates["scoreboard"].values()
        )
    )


def _cmd_duel(args: argparse.Namespace) -> int:
    from repro.algos.duel import run_duel
    from repro.loading import write_json_atomic

    strategies = _strategies(args.strategies)
    doc = run_duel(
        seed=args.seed,
        count=args.count,
        slack=args.slack,
        strategies=strategies,
    )
    summary = doc["summary"]
    for row in doc["cases"]:
        print(f"{row['case']} size={row['size']} "
              f"augmented_only={row['augmented_only']}")
        for name in sorted(row["results"]):
            result = row["results"][name]
            outcomes = ",".join(
                result["outcomes"][flow]
                for flow in sorted(result["outcomes"])
            )
            print(f"  {name:<14s} {outcomes} "
                  f"violations={result['violations']}")
    print(f"pairs={summary['pairs']} "
          f"augmented_only={summary['augmented_only_completions']} "
          f"violations={summary['violations']}")
    if args.out:
        write_json_atomic(args.out, doc)
        print(f"wrote {args.out}")
    ok = summary["violations"] == 0
    if args.slack >= 0 and "augmented" in strategies and len(strategies) > 1:
        # The acceptance criterion: augmentation must resolve every
        # pair the capacity-preserving strategies deadlock on.
        ok = ok and summary["augmented_only_completions"] == summary["pairs"]
    return report_ok(ok)


_STRATEGIES_HELP = "comma-separated strategy names (default: all registered)"


def add_compete_parser(sub: argparse._SubParsersAction) -> None:
    parser = sub.add_parser(
        "compete",
        help="head-to-head update-strategy competition (repro.algos)",
    )
    compete_sub = parser.add_subparsers(dest="compete_command", required=True)

    pval = compete_sub.add_parser(
        "validate", help="validate a compete workload spec"
    )
    pval.set_defaults(run=_cmd_validate)
    pval.add_argument("spec", help="path to a serve spec JSON file")
    pval.add_argument("--strategies", default=None, help=_STRATEGIES_HELP)

    prun = compete_sub.add_parser(
        "run", help="fan one workload across strategies, write the scoreboard"
    )
    prun.set_defaults(run=_cmd_run)
    prun.add_argument("spec", help="path to a serve spec JSON file")
    prun.add_argument("--strategies", default=None, help=_STRATEGIES_HELP)
    prun.add_argument(
        "--seeds", type=int, default=1,
        help="seeded workload replicas per strategy (paired across them)",
    )
    add_fleet_flags(prun)
    add_output_flags(
        prun,
        out_dir=BENCH_DIR_HELP.format("compete"),
        obs="instrument runs with live metrics",
    )

    pduel = compete_sub.add_parser(
        "duel", help="strategies vs the advgen slack-deadlock suite"
    )
    pduel.set_defaults(run=_cmd_duel)
    pduel.add_argument(
        "--seed", type=int, default=0, help="suite seed (default 0)"
    )
    pduel.add_argument(
        "--count", type=int, default=3, help="deadlock pairs (default 3)"
    )
    pduel.add_argument(
        "--slack", type=float, default=0.25,
        help="helper-corridor spare capacity (negative = unresolvable)",
    )
    pduel.add_argument("--strategies", default=None, help=_STRATEGIES_HELP)
    pduel.add_argument(
        "--out", default=None, help="also write the full duel JSON here"
    )
