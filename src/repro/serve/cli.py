"""The ``serve`` CLI subcommand: validate / run.

* ``serve validate <spec.json>`` — load and validate a serve spec,
  print its summary, run nothing;
* ``serve run <spec.json>`` — execute the service workload.  With
  ``--seeds N`` the run fans out as N seeded replicas through the
  sweep executor (``--workers``, ``--resume``, ``--cache-dir`` work
  exactly as for ``sweep run``), writes a consolidated
  ``BENCH_serve_<name>.json`` manifest and prints the deterministic
  aggregate signature.  Exits 1 on shard failures, consistency
  violations or a broken terminal-outcome invariant.
"""

from __future__ import annotations

import argparse
import dataclasses
import os

from repro.obs.causal import write_causal_jsonl
from repro.serve.spec import ServeSpec
from repro.sweep.cli import (
    BENCH_DIR_HELP,
    add_fleet_flags,
    add_output_flags,
    load_or_exit,
    obs_from_flags,
    report_ok,
    run_fleet,
    write_fleet_manifest,
)


def load_spec(path: str, code: int = 1) -> ServeSpec:
    """The serve spec at ``path`` (``compete`` and ``analyze
    interference`` read the same files)."""
    from repro.serve.spec import ServeSpecError, load_serve_spec_file

    return load_or_exit(
        load_serve_spec_file, path, "serve spec", ServeSpecError, code=code
    )


def _cmd_validate(args: argparse.Namespace) -> int:
    spec = load_spec(args.spec)
    print(f"serve spec {spec.name!r} is valid:")
    print(f"  topology:   {spec.topology}")
    print(f"  workload:   {spec.mode}-loop, {spec.requests} requests over "
          f"{spec.flows} flows")
    print(f"  admission:  depth={spec.queue_depth} "
          f"rate={spec.rate_per_s or 'unlimited'}/s "
          f"shed={spec.shed_policy}")
    print(f"  conflicts:  same-flow={spec.conflict_policy} "
          f"shared-switch={spec.switch_conflict} "
          f"max_in_flight={spec.max_in_flight or 'unlimited'}")
    print(f"  horizon:    {spec.horizon_ms:.0f} ms, "
          f"{len(spec.events)} chaos event(s)")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.serve.sweep_kind import serve_sweep

    spec = load_spec(args.spec)
    if args.causal and not spec.causal:
        spec = dataclasses.replace(spec, causal=True)
    sweep = serve_sweep(spec, args.seeds, obs=args.obs)
    obs = obs_from_flags(args)
    results = run_fleet(
        sweep, args, obs,
        banner=f"serve {spec.name!r}: {args.seeds} seeded replica(s)",
    )
    # Causal DAGs are bulky: they leave the shard documents for a
    # sidecar JSONL (gzipped), keeping the manifest lean.  The compact
    # per-request attribution stays inside each shard's results.
    causal_dags: list[dict] = []
    for doc in results["shards"]:
        for dag in doc.pop("causal", None) or []:
            causal_dags.append(
                {"shard_id": doc["shard_id"], "seed": doc["seed"], **dag}
            )
    path = write_fleet_manifest(f"serve_{spec.name}", sweep, results, args, obs)
    aggregates = results["aggregates"]
    if causal_dags:
        sidecar = args.causal_out or os.path.join(
            os.path.dirname(path) or ".",
            f"TRACE_serve_{spec.name}.causal.jsonl.gz",
        )
        count = write_causal_jsonl(causal_dags, sidecar)
        print(f"wrote {count} request DAG(s) to {sidecar}")
    print(f"signature {results['signature']}")
    print(f"  requests:   {aggregates['requests']} "
          f"({aggregates['completed']} completed)")
    for outcome, count in aggregates["outcomes"].items():
        print(f"    {outcome:<12s} {count}")
    print(f"  throughput: {aggregates['mean_throughput_per_s']:.1f} "
          f"completed updates / simulated s")
    print(f"  consistent: {aggregates['consistent']} "
          f"({aggregates['violations']} violation(s))")
    print(f"  invariants: {'ok' if aggregates['invariants_ok'] else 'BROKEN'}")
    attribution = aggregates.get("attribution")
    if attribution:
        print(f"  attribution ({attribution['requests']} request(s), "
              f"residual max {attribution['residual_max_ms']:.2e} ms):")
        for segment, series in attribution["segments"].items():
            if not series["total"]:
                continue
            print(f"    {segment:<17s} p50={series['p50']:>9.3f} "
                  f"p90={series['p90']:>9.3f} p99={series['p99']:>9.3f} ms")
    return report_ok(
        not results["failures"] and aggregates["consistent"] and aggregates["invariants_ok"]
    )


def add_serve_parser(sub: argparse._SubParsersAction) -> None:
    parser = sub.add_parser(
        "serve", help="concurrent update-request service (repro.serve)"
    )
    serve_sub = parser.add_subparsers(dest="serve_command", required=True)

    pval = serve_sub.add_parser("validate", help="validate a serve spec")
    pval.set_defaults(run=_cmd_validate)
    pval.add_argument("spec", help="path to a serve spec JSON file")

    prun = serve_sub.add_parser(
        "run", help="run the service workload (multi-seed via the sweep fleet)"
    )
    prun.set_defaults(run=_cmd_run)
    prun.add_argument("spec", help="path to a serve spec JSON file")
    prun.add_argument(
        "--seeds", type=int, default=1,
        help="seeded replicas to run (each is one sweep shard)",
    )
    add_fleet_flags(prun)
    add_output_flags(
        prun,
        out_dir=BENCH_DIR_HELP.format("serve"),
        obs="instrument replicas with live metrics",
    )
    prun.add_argument(
        "--causal", action="store_true",
        help="per-request causal tracing + critical-path latency "
             "attribution (repro.obs.causal)",
    )
    prun.add_argument(
        "--causal-out", default=None,
        help="sidecar path for the request DAGs "
             "(default TRACE_serve_<name>.causal.jsonl.gz next to the "
             "manifest; .gz gzips transparently)",
    )
