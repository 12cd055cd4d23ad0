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
import sys
from typing import Optional

from repro.serve.spec import ServeSpec


def load_or_report(path: str) -> Optional[ServeSpec]:
    """The serve spec at ``path``, or ``None`` after printing why not."""
    from repro.serve.spec import ServeSpecError, load_serve_spec_file

    try:
        return load_serve_spec_file(path)
    except (OSError, ServeSpecError) as exc:
        print(f"error: cannot load serve spec {path!r}: {exc}", file=sys.stderr)
        return None


def cmd_serve(args: argparse.Namespace) -> int:
    handler = {
        "validate": _cmd_validate,
        "run": _cmd_run,
    }[args.serve_command]
    return handler(args)


def _cmd_validate(args: argparse.Namespace) -> int:
    spec = load_or_report(args.spec)
    if spec is None:
        return 1
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
    import dataclasses
    import os

    from repro.obs import make_obs
    from repro.serve.sweep_kind import serve_sweep
    from repro.sweep.cli import run_fleet
    from repro.sweep.merge import write_results_manifest

    spec = load_or_report(args.spec)
    if spec is None:
        return 1
    if args.causal and not spec.causal:
        spec = dataclasses.replace(spec, causal=True)
    sweep = serve_sweep(spec, args.seeds, obs=args.obs)
    print(f"serve {spec.name!r}: {args.seeds} seeded replica(s), "
          f"{args.workers} worker(s)"
          + (", resuming" if args.resume else ""))

    obs = make_obs() if args.obs else None
    run, results = run_fleet(sweep, args, obs)
    # Causal DAGs are bulky: they leave the shard documents for a
    # sidecar JSONL (gzipped), keeping the manifest lean.  The compact
    # per-request attribution stays inside each shard's results.
    causal_dags: list[dict] = []
    for doc in results["shards"]:
        for dag in doc.pop("causal", None) or []:
            causal_dags.append(
                {"shard_id": doc["shard_id"], "seed": doc["seed"], **dag}
            )
    path = write_results_manifest(
        f"serve_{spec.name}", sweep, results, out_dir=args.out_dir, obs=obs
    )
    aggregates = results["aggregates"]
    print(f"wrote {path}")
    if causal_dags:
        from repro.obs.causal import write_causal_jsonl

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
    ok = (
        run.ok
        and aggregates["consistent"]
        and aggregates["invariants_ok"]
    )
    print("OK" if ok else "FAILED")
    return 0 if ok else 1


def add_serve_parser(sub: argparse._SubParsersAction) -> None:
    from repro.sweep.cli import add_fleet_flags

    parser = sub.add_parser(
        "serve", help="concurrent update-request service (repro.serve)"
    )
    serve_sub = parser.add_subparsers(dest="serve_command", required=True)

    pval = serve_sub.add_parser("validate", help="validate a serve spec")
    pval.add_argument("spec", help="path to a serve spec JSON file")

    prun = serve_sub.add_parser(
        "run", help="run the service workload (multi-seed via the sweep fleet)"
    )
    prun.add_argument("spec", help="path to a serve spec JSON file")
    prun.add_argument(
        "--seeds", type=int, default=1,
        help="seeded replicas to run (each is one sweep shard)",
    )
    add_fleet_flags(prun)
    prun.add_argument(
        "--out-dir", default=None,
        help="directory for BENCH_serve_<name>.json (default: repo root "
             "or $REPRO_BENCH_DIR)",
    )
    prun.add_argument(
        "--obs", action="store_true",
        help="instrument replicas with live metrics",
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
