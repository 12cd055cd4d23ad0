"""The fleet CLI: the ``sweep`` subcommand (plan / run / merge /
status) and the front end every other fleet-running command shares.

Wired into :mod:`repro.harness.cli`; kept here so the harness stays a
thin argument-parsing layer.

``sweep run``, ``serve run``, ``compete run``, ``ops run --seeds``,
``analyze interference --seeds``, ``chaos run``, ``fuzz run``, ``fig7``
and ``fig8`` all take :func:`add_fleet_flags` and execute through
:func:`run_fleet`: same flags, same failure report, same results tree.

* ``sweep plan <spec.json>`` — expand and print the shard list
  without running anything (what *would* the fleet do?);
* ``sweep run <spec.json>`` — execute the fleet (``--workers N``,
  ``--resume``, ``--obs``, ``--profile``), write the consolidated
  ``BENCH_sweep_<name>.json`` manifest and print the deterministic
  aggregate signature; exits 1 when any shard exhausted its retries;
* ``sweep merge <spec.json>`` — rebuild the consolidated manifest
  purely from the on-disk shard cache (no execution);
* ``sweep status <spec.json>`` — print the live fleet heartbeat
  written by a (possibly still running) ``sweep run``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Optional

from repro.sweep.executor import SweepRun, run_sweep
from repro.sweep.merge import build_sweep_results
from repro.sweep.spec import SweepSpec


def add_fleet_flags(parser: argparse.ArgumentParser, resume: bool = True) -> None:
    """``--workers`` / ``--resume`` / ``--cache-dir`` (``resume=False``
    for commands whose shards must always re-run)."""
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = serial in-process execution, default)",
    )
    if resume:
        parser.add_argument(
            "--resume", action="store_true",
            help="reuse completed shards from the on-disk cache",
        )
    parser.add_argument(
        "--cache-dir", default=None,
        help="shard-result cache root (default .sweep_cache)",
    )


def run_fleet(
    sweep: SweepSpec,
    args: argparse.Namespace,
    obs: Optional[Any] = None,
    **run_options: Any,
) -> tuple[SweepRun, dict]:
    """Run ``sweep`` as the parsed fleet flags say, print one line per
    exhausted shard to stderr, and return the run with its merged
    results tree (:func:`~repro.sweep.merge.build_sweep_results`)."""
    run = run_sweep(
        sweep,
        workers=args.workers,
        cache_dir=args.cache_dir,
        resume=getattr(args, "resume", False),
        obs=obs,
        **run_options,
    )
    for failure in run.failures:
        print(
            f"SHARD FAILURE {failure['shard_id']} "
            f"({failure['attempts']} attempt(s)): "
            f"{failure['error_type']}: {failure['message']}",
            file=sys.stderr,
        )
    results = build_sweep_results(
        sweep, run.shard_docs, run.failures, run.shards_total
    )
    return run, results


def cmd_sweep(args: argparse.Namespace) -> int:
    handler = {
        "plan": _cmd_plan,
        "run": _cmd_run,
        "merge": _cmd_merge,
        "status": _cmd_status,
    }[args.sweep_command]
    return handler(args)


def _load(path: str) -> Optional[SweepSpec]:
    from repro.sweep.spec import SweepSpecError, load_sweep_spec_file

    try:
        return load_sweep_spec_file(path)
    except (OSError, SweepSpecError) as exc:
        print(f"error: cannot load sweep spec {path!r}: {exc}", file=sys.stderr)
        return None


def _cmd_plan(args: argparse.Namespace) -> int:
    spec = _load(args.spec)
    if spec is None:
        return 1
    shards = spec.expand()
    print(f"sweep {spec.name!r} ({spec.kind}): {len(shards)} shard(s), "
          f"spec hash {spec.spec_hash()[:16]}")
    if spec.description:
        print(f"# {spec.description}")
    for shard in shards:
        print(f"  {shard.describe()}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.obs import make_obs
    from repro.sweep.merge import (
        format_profile,
        merge_shard_obs,
        write_results_manifest,
    )

    spec = _load(args.spec)
    if spec is None:
        return 1
    shards_total = len(spec.expand())
    print(f"sweep {spec.name!r}: {shards_total} shard(s), "
          f"{args.workers} worker(s)"
          + (", resuming" if args.resume else ""))

    obs = make_obs() if args.obs else None
    heartbeat_every = max(1, shards_total // 10)

    def heartbeat(progress, event: str) -> None:
        if event not in ("shard_completed", "shard_failed"):
            return
        done = progress.completed + progress.failed
        if done % heartbeat_every and progress.remaining:
            return
        eta = progress.eta_s(args.workers)
        eta_text = f", eta {eta:.1f}s" if eta is not None else ""
        print(f"  [{done}/{progress.total}] completed={progress.completed} "
              f"failed={progress.failed} cached={progress.cached}{eta_text}")

    run, results = run_fleet(
        spec, args, obs,
        retries=args.retries, progress=heartbeat, profile=args.profile,
    )
    path = write_results_manifest(
        f"sweep_{spec.name}", spec, merge_shard_obs(results),
        out_dir=args.out_dir, obs=obs,
    )
    print(f"wrote {path}")
    print(f"signature {results['signature']}")
    if "merged_profile" in results:
        print(format_profile(results["merged_profile"]))
    print("OK" if run.ok else "FAILED")
    return 0 if run.ok else 1


def _cmd_merge(args: argparse.Namespace) -> int:
    from repro.sweep.executor import cache_root, load_cached_shard
    from repro.sweep.merge import results_signature, write_sweep_manifest

    spec = _load(args.spec)
    if spec is None:
        return 1
    root = cache_root(spec, args.cache_dir)
    digest = spec.spec_hash()
    docs = []
    missing = []
    for shard in spec.expand():
        doc = load_cached_shard(root, shard, digest)
        if doc is None:
            missing.append(shard.shard_id)
        else:
            docs.append(doc)
    if missing:
        print(
            f"error: {len(missing)} shard(s) not in cache {root!r}: "
            f"{', '.join(missing[:8])}{'...' if len(missing) > 8 else ''}",
            file=sys.stderr,
        )
        return 1
    path = write_sweep_manifest(
        spec, docs, [], len(docs), out_dir=args.out_dir,
    )
    print(f"wrote {path}")
    print(f"signature {results_signature(docs)}")
    return 0


#: Fields a readable status heartbeat must carry before we render it.
_STATUS_REQUIRED = (
    "name", "state", "spec_hash", "shards_total", "completed",
    "failed", "remaining", "cached", "workers",
)


def _cmd_status(args: argparse.Namespace) -> int:
    import os

    from repro.sweep.executor import cache_root, read_status

    spec = _load(args.spec)
    if spec is None:
        return 1
    root = cache_root(spec, args.cache_dir)
    status_path = os.path.join(root, "status.json")
    if not os.path.exists(status_path):
        print(f"error: no status for sweep {spec.name!r} under {root!r} "
              f"(not started, or a different spec version)", file=sys.stderr)
        return 1
    status = read_status(root)
    if status is None:
        # The heartbeat is rewritten while the fleet runs; a read can
        # race a writer and see a truncated/partial file.
        print(f"error: status file {status_path!r} is unreadable or "
              f"mid-write; retry in a moment", file=sys.stderr)
        return 1
    missing = [key for key in _STATUS_REQUIRED if key not in status]
    if missing:
        print(f"error: status file {status_path!r} is incomplete "
              f"(missing {', '.join(missing)}); it may be mid-write or "
              f"from an older run — retry or remove it", file=sys.stderr)
        return 1
    print(f"sweep {status['name']!r} [{status['state']}] "
          f"spec {str(status['spec_hash'])[:16]}")
    print(f"  shards:    {status['completed']}/{status['shards_total']} "
          f"completed, {status['failed']} failed, "
          f"{status['remaining']} remaining ({status['cached']} from cache, "
          f"{status.get('cache_rejected', 0)} cache file(s) rejected)")
    print(f"  workers:   {status['workers']}")
    print(f"  elapsed:   {float(status.get('elapsed_s') or 0.0):.1f} s")
    eta = status.get("eta_s")
    print(f"  eta:       {eta:.1f} s" if eta is not None else "  eta:       -")
    return 0


def add_sweep_parser(sub: argparse._SubParsersAction) -> None:
    parser = sub.add_parser(
        "sweep", help="fleet orchestration: parallel experiment sweeps"
    )
    sweep_sub = parser.add_subparsers(dest="sweep_command", required=True)

    pplan = sweep_sub.add_parser("plan", help="expand a spec into its shard list")
    pplan.add_argument("spec", help="path to a sweep spec JSON file")

    prun = sweep_sub.add_parser(
        "run", help="execute a sweep across worker processes"
    )
    prun.add_argument("spec", help="path to a sweep spec JSON file")
    add_fleet_flags(prun)
    prun.add_argument(
        "--retries", type=int, default=2,
        help="retry attempts per shard before recording a ShardFailure",
    )
    prun.add_argument(
        "--out-dir", default=None,
        help="directory for BENCH_sweep_<name>.json (default: repo root "
             "or $REPRO_BENCH_DIR)",
    )
    prun.add_argument(
        "--obs", action="store_true",
        help="instrument shards with live metrics, merged into the manifest",
    )
    prun.add_argument(
        "--profile", action="store_true",
        help="profile engine callbacks per shard and merge the reports",
    )

    pmerge = sweep_sub.add_parser(
        "merge", help="rebuild the consolidated manifest from cached shards"
    )
    pmerge.add_argument("spec", help="path to a sweep spec JSON file")
    pmerge.add_argument("--cache-dir", default=None)
    pmerge.add_argument("--out-dir", default=None)

    pstatus = sweep_sub.add_parser(
        "status", help="show the live heartbeat of a (running) sweep"
    )
    pstatus.add_argument("spec", help="path to a sweep spec JSON file")
    pstatus.add_argument("--cache-dir", default=None)
