"""The fleet CLI: the ``sweep`` subcommand (plan / run / merge /
status) and the front end every other fleet-running command shares.

Wired into :mod:`repro.harness.cli`; kept here so the harness stays a
thin argument-parsing layer.

``sweep run``, ``serve run``, ``compete run``, ``ops run --seeds``,
``analyze interference --seeds``, ``chaos run``, ``fuzz run``, ``fig7``
and ``fig8`` all take :func:`add_fleet_flags` and execute through
:func:`run_fleet`: same flags, same failure report, same results tree.
Those that write a manifest declare :func:`add_output_flags` and end in
:func:`write_fleet_manifest` and :func:`report_ok`.  Every verb of every
group reports a failure by raising :class:`CliError` (spec files through
:func:`load_or_exit`); ``repro.harness.cli.main`` alone prints it.

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
import os
import sys
from typing import Any, Callable, Optional, TypeVar

from repro.obs.context import make_obs
from repro.obs.manifest import write_manifest
from repro.obs.sampler import format_samples
from repro.sweep.executor import cache_root, read_status, run_sweep, scan_cache
from repro.sweep.merge import build_sweep_results, merge_shard_obs
from repro.sweep.spec import SweepSpec, SweepSpecError, load_sweep_spec_file

#: ``--out-dir`` help of the verbs that write ``BENCH_<kind>_<name>.json``.
BENCH_DIR_HELP = (
    "directory for BENCH_{}_<name>.json (default: repo root "
    "or $REPRO_BENCH_DIR)"
)


T = TypeVar("T")


class CliError(Exception):
    """A verb cannot go on.  Raised anywhere below ``main``, which alone
    prints ``error: <message>`` to stderr and exits with ``code``."""

    def __init__(self, message: str, code: int = 1) -> None:
        super().__init__(message)
        self.code = code


def load_or_exit(
    loader: Callable[[str], T],
    path: str,
    noun: str,
    *errors: type[Exception],
    code: int = 1,
) -> T:
    """``loader(path)``, or the :class:`CliError` that names ``path`` when
    it raises ``OSError`` or one of ``errors``."""
    from repro.chaos.campaign import SpecTopologyError

    try:
        return loader(path)
    except SpecTopologyError as exc:
        # "session spec" / "campaign" files are reported as a session /
        # campaign, one line per bad reference.
        problems = "".join(f"\n  - {problem}" for problem in exc.problems)
        raise CliError(
            f"{noun.split()[0]} {path!r}: unknown node or link reference(s) "
            f"for topology {exc.topology!r}:{problems}",
            code,
        ) from None
    except (OSError, *errors) as exc:
        raise CliError(f"cannot load {noun} {path!r}: {exc}", code) from None


def _worker_count(text: str) -> int:
    """``--workers``: an int of at least 1, else a usage error (exit 2)
    before anything runs."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def add_fleet_flags(parser: argparse.ArgumentParser, resume: bool = True) -> None:
    """``--workers`` / ``--resume`` / ``--cache-dir`` (``resume=False``
    for commands whose shards must always re-run)."""
    parser.add_argument(
        "--workers", type=_worker_count, default=1,
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


def add_output_flags(
    parser: argparse.ArgumentParser, **helps: Optional[str]
) -> None:
    """Declare ``out_dir`` / ``obs`` / ``manifest`` — the flags
    :func:`obs_from_flags` and :func:`write_fleet_manifest` read — in the
    order named, each with its help text."""
    for dest, text in helps.items():
        kind: dict[str, Any] = (
            {"default": None} if dest == "out_dir" else {"action": "store_true"}
        )
        parser.add_argument("--" + dest.replace("_", "-"), help=text, **kind)


def obs_from_flags(args: argparse.Namespace) -> Optional[Any]:
    """A live observability context when ``--obs`` was given."""
    return make_obs() if args.obs else None


def announce(banner: str, args: argparse.Namespace) -> None:
    """Print a fleet's banner with its worker count and resume mode."""
    print(f"{banner}, {args.workers} worker(s)"
          + (", resuming" if getattr(args, "resume", False) else ""))


def run_fleet(
    sweep: SweepSpec,
    args: argparse.Namespace,
    obs: Optional[Any] = None,
    banner: Optional[str] = None,
    **run_options: Any,
) -> dict:
    """Run ``sweep`` as the parsed fleet flags say — after announcing
    ``banner`` with the worker count, when given — print one line per
    exhausted shard to stderr, and return the merged results tree
    (:func:`~repro.sweep.merge.build_sweep_results`); the fleet is
    whole iff its ``failures`` list is empty."""
    resume = getattr(args, "resume", False)
    if banner:
        announce(banner, args)
    run = run_sweep(
        sweep,
        workers=args.workers,
        cache_dir=args.cache_dir,
        resume=resume,
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
    return build_sweep_results(
        sweep, run.shard_docs, run.failures, run.shards_total
    )


def write_fleet_manifest(
    name: str,
    spec: Any,
    results: dict,
    args: argparse.Namespace,
    obs: Optional[Any] = None,
) -> str:
    """Write ``results`` as ``BENCH_<name>.json`` under ``--out-dir``
    with ``spec.to_dict()`` as its params and ``spec.seed`` as its seed,
    say so, and return the path."""
    path = write_manifest(
        name,
        params=spec.to_dict(),
        results=results,
        seed=spec.seed,
        obs=obs,
        out_dir=args.out_dir,
    )
    print(f"wrote {path}")
    return path


def report_ok(ok: bool) -> int:
    """The last line and the exit code of every pass/fail verb."""
    print("OK" if ok else "FAILED")
    return 0 if ok else 1


def _load(path: str) -> SweepSpec:
    return load_or_exit(load_sweep_spec_file, path, "sweep spec", SweepSpecError)


def _cmd_plan(args: argparse.Namespace) -> int:
    spec = _load(args.spec)
    shards = spec.expand()
    print(f"sweep {spec.name!r} ({spec.kind}): {len(shards)} shard(s), "
          f"spec hash {spec.spec_hash()[:16]}")
    if spec.description:
        print(f"# {spec.description}")
    for shard in shards:
        print(f"  {shard.describe()}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _load(args.spec)
    obs = obs_from_flags(args)

    def heartbeat(progress, event: str) -> None:
        if event == "started":
            announce(f"sweep {spec.name!r}: {progress.total} shard(s)", args)
        if event not in ("shard_completed", "shard_failed"):
            return
        done = progress.completed + progress.failed
        if done % max(1, progress.total // 10) and progress.remaining:
            return
        eta = progress.eta_s(args.workers)
        eta_text = f", eta {eta:.1f}s" if eta is not None else ""
        print(f"  [{done}/{progress.total}] completed={progress.completed} "
              f"failed={progress.failed} cached={progress.cached}{eta_text}")

    results = run_fleet(
        spec, args, obs, retries=args.retries, progress=heartbeat, profile=args.profile,
    )
    write_fleet_manifest(
        f"sweep_{spec.name}", spec, merge_shard_obs(results), args, obs
    )
    print(f"signature {results['signature']}")
    if "merged_profile" in results:
        print(format_samples(results["merged_profile"]))
    return report_ok(not results["failures"])


def _cmd_merge(args: argparse.Namespace) -> int:
    spec = _load(args.spec)
    root = cache_root(spec, args.cache_dir)
    docs, missing = scan_cache(root, spec.expand(), spec.spec_hash())
    if missing:
        ids = [shard.shard_id for shard in missing]
        raise CliError(
            f"{len(ids)} shard(s) not in cache {root!r}: "
            f"{', '.join(ids[:8])}{'...' if len(ids) > 8 else ''}"
        )
    results = build_sweep_results(spec, [docs[i] for i in sorted(docs)], [], len(docs))
    write_fleet_manifest(f"sweep_{spec.name}", spec, merge_shard_obs(results), args)
    print(f"signature {results['signature']}")
    return 0


#: Fields a readable status heartbeat must carry before we render it.
_STATUS_REQUIRED = (
    "name", "state", "spec_hash", "shards_total", "completed",
    "failed", "remaining", "cached", "workers",
)


def _cmd_status(args: argparse.Namespace) -> int:
    spec = _load(args.spec)
    root = cache_root(spec, args.cache_dir)
    status_path = os.path.join(root, "status.json")
    if not os.path.exists(status_path):
        raise CliError(
            f"no status for sweep {spec.name!r} under {root!r} "
            f"(not started, or a different spec version)"
        )
    status = read_status(root)
    if status is None:
        # The heartbeat is rewritten while the fleet runs; a read can
        # race a writer and see a truncated/partial file.
        raise CliError(
            f"status file {status_path!r} is unreadable or "
            f"mid-write; retry in a moment"
        )
    missing = [key for key in _STATUS_REQUIRED if key not in status]
    if missing:
        raise CliError(
            f"status file {status_path!r} is incomplete "
            f"(missing {', '.join(missing)}); it may be mid-write or "
            f"from an older run — retry or remove it"
        )
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
    pplan.set_defaults(run=_cmd_plan)
    pplan.add_argument("spec", help="path to a sweep spec JSON file")

    prun = sweep_sub.add_parser(
        "run", help="execute a sweep across worker processes"
    )
    prun.set_defaults(run=_cmd_run)
    prun.add_argument("spec", help="path to a sweep spec JSON file")
    add_fleet_flags(prun)
    prun.add_argument(
        "--retries", type=int, default=2,
        help="retry attempts per shard before recording a ShardFailure",
    )
    add_output_flags(
        prun,
        out_dir=BENCH_DIR_HELP.format("sweep"),
        obs="instrument shards with live metrics, merged into the manifest",
    )
    prun.add_argument(
        "--profile", action="store_true",
        help="sample CPU per function and per layer in each shard and "
             "merge the samples",
    )

    pmerge = sweep_sub.add_parser(
        "merge", help="rebuild the consolidated manifest from cached shards"
    )
    pmerge.set_defaults(run=_cmd_merge)
    pmerge.add_argument("spec", help="path to a sweep spec JSON file")
    pmerge.add_argument("--cache-dir", default=None)
    add_output_flags(pmerge, out_dir=None)

    pstatus = sweep_sub.add_parser(
        "status", help="show the live heartbeat of a (running) sweep"
    )
    pstatus.set_defaults(run=_cmd_status)
    pstatus.add_argument("spec", help="path to a sweep spec JSON file")
    pstatus.add_argument("--cache-dir", default=None)
