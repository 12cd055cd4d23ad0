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
import sys
from typing import Optional

from repro.serve.cli import load_or_report


def _strategies(arg: Optional[str]) -> Optional[list[str]]:
    """Parse ``--strategies a,b,c`` (None -> every registered one)."""
    from repro.algos.registry import strategy_names

    if not arg:
        return strategy_names()
    chosen = [name.strip() for name in arg.split(",") if name.strip()]
    known = strategy_names()
    unknown = [name for name in chosen if name not in known]
    if unknown:
        print(
            f"error: unknown strategy(ies) {unknown}; known: {known}",
            file=sys.stderr,
        )
        return None
    return chosen


def cmd_compete(args: argparse.Namespace) -> int:
    handler = {
        "validate": _cmd_validate,
        "run": _cmd_run,
        "duel": _cmd_duel,
    }[args.compete_command]
    return handler(args)


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.algos.registry import get_strategy
    from repro.serve.sweep_kind import serve_sweep

    spec = load_or_report(args.spec)
    if spec is None:
        return 1
    strategies = _strategies(args.strategies)
    if strategies is None:
        return 1
    # Exercise the full sweep-spec validation path too (what run uses).
    serve_sweep(spec, 1, kind="compete", strategies=strategies)
    print(f"compete spec {spec.name!r} is valid:")
    print(f"  workload:   {spec.mode}-loop, {spec.requests} requests over "
          f"{spec.flows} flows on {spec.topology}")
    print(f"  strategies: {len(strategies)}")
    for name in strategies:
        info = get_strategy(name)
        flags = ", ".join(
            name for name, on in info.capabilities().items() if on
        ) or "-"
        print(f"    {name:<14s} [{flags}] {info.description}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.obs import make_obs
    from repro.serve.sweep_kind import serve_sweep
    from repro.sweep.cli import run_fleet
    from repro.sweep.merge import write_results_manifest

    spec = load_or_report(args.spec)
    if spec is None:
        return 1
    strategies = _strategies(args.strategies)
    if strategies is None:
        return 1
    sweep = serve_sweep(
        spec, args.seeds, kind="compete", obs=args.obs, strategies=strategies
    )
    print(f"compete {spec.name!r}: {len(strategies)} strategy(ies) x "
          f"{args.seeds} seed(s), {args.workers} worker(s)"
          + (", resuming" if args.resume else ""))

    obs = make_obs() if args.obs else None
    run, results = run_fleet(sweep, args, obs)
    # The scoreboard manifest is a byte-identity gate across worker
    # counts (bench_compare --exact '*'), so host-time bookkeeping
    # stays out of the results tree entirely.
    results["shards"] = [
        {name: value for name, value in shard.items() if name != "wall"}
        for shard in results["shards"]
    ]
    path = write_results_manifest(
        f"compete_{spec.name}", sweep, results, out_dir=args.out_dir, obs=obs
    )
    aggregates = results["aggregates"]
    print(f"wrote {path}")
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
    ok = (
        run.ok
        and aggregates["consistent"]
        and all(
            row["invariants_ok"]
            for row in aggregates["scoreboard"].values()
        )
    )
    print("OK" if ok else "FAILED")
    return 0 if ok else 1


def _cmd_duel(args: argparse.Namespace) -> int:
    import json

    from repro.algos.duel import run_duel

    strategies = _strategies(args.strategies)
    if strategies is None:
        return 1
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
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    ok = summary["violations"] == 0
    if args.slack >= 0 and "augmented" in strategies and len(strategies) > 1:
        # The acceptance criterion: augmentation must resolve every
        # pair the capacity-preserving strategies deadlock on.
        ok = ok and summary["augmented_only_completions"] == summary["pairs"]
    print("OK" if ok else "FAILED")
    return 0 if ok else 1


def add_compete_parser(sub: argparse._SubParsersAction) -> None:
    from repro.sweep.cli import add_fleet_flags

    parser = sub.add_parser(
        "compete",
        help="head-to-head update-strategy competition (repro.algos)",
    )
    compete_sub = parser.add_subparsers(dest="compete_command", required=True)

    pval = compete_sub.add_parser(
        "validate", help="validate a compete workload spec"
    )
    pval.add_argument("spec", help="path to a serve spec JSON file")
    pval.add_argument(
        "--strategies", default=None,
        help="comma-separated strategy names (default: all registered)",
    )

    prun = compete_sub.add_parser(
        "run", help="fan one workload across strategies, write the scoreboard"
    )
    prun.add_argument("spec", help="path to a serve spec JSON file")
    prun.add_argument(
        "--strategies", default=None,
        help="comma-separated strategy names (default: all registered)",
    )
    prun.add_argument(
        "--seeds", type=int, default=1,
        help="seeded workload replicas per strategy (paired across them)",
    )
    add_fleet_flags(prun)
    prun.add_argument(
        "--out-dir", default=None,
        help="directory for BENCH_compete_<name>.json (default: repo root "
             "or $REPRO_BENCH_DIR)",
    )
    prun.add_argument(
        "--obs", action="store_true",
        help="instrument runs with live metrics",
    )

    pduel = compete_sub.add_parser(
        "duel", help="strategies vs the advgen slack-deadlock suite"
    )
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
    pduel.add_argument(
        "--strategies", default=None,
        help="comma-separated strategy names (default: all registered)",
    )
    pduel.add_argument(
        "--out", default=None, help="also write the full duel JSON here"
    )
