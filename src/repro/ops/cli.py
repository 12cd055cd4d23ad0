"""The ``ops`` CLI subcommand: validate / run / checkpoint / resume / status.

* ``ops validate <spec.json>`` — load a session spec (embedded serve
  spec, timeline, topology-existence checks), print a summary, run
  nothing; exits 1 with a structured error on bad node references.
* ``ops run <spec.json>`` — execute one session inline with the
  spec's own seed (optionally ``--manifest`` → ``BENCH_ops_<name>``).
  With ``--seeds N`` the run fans out as N seeded sessions through
  the sweep executor instead and writes ``BENCH_ops_fleet_<name>``
  whose aggregate signature is worker-count independent.
* ``ops checkpoint <spec.json> --dir D`` — run the session recording a
  replay point every ``checkpoint_every_ms`` of simulated time;
  ``--stop-after N`` kills the run right after checkpoint N (the
  resume drill's kill point).
* ``ops resume --dir D`` — replay the session to the latest (or
  ``--index``) checkpoint and continue to the horizon, byte-identically
  to an uninterrupted run; keeps checkpointing to the same directory.
* ``ops status --dir D`` — inspect a checkpoint directory.
"""

from __future__ import annotations

import argparse
from typing import TYPE_CHECKING

from repro.obs.manifest import write_manifest
from repro.sweep.cli import (
    BENCH_DIR_HELP,
    CliError,
    add_fleet_flags,
    add_output_flags,
    load_or_exit,
    obs_from_flags,
    report_ok,
    run_fleet,
    write_fleet_manifest,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ops.checkpoint import CheckpointSink
    from repro.ops.session import OpsResult, OpsSession
    from repro.ops.spec import SessionSpec


def _load(path: str) -> "SessionSpec":
    from repro.ops.spec import SessionSpecError, load_session_spec_file

    return load_or_exit(
        load_session_spec_file, path, "session spec", SessionSpecError
    )


def _cmd_validate(args: argparse.Namespace) -> int:
    spec = _load(args.spec)
    serve = spec.serve_spec()
    print(f"session spec {spec.name!r} is valid:")
    print(f"  serve:      {serve.name!r} on {serve.topology}, "
          f"{serve.requests} requests over {serve.flows} flows, "
          f"horizon {serve.horizon_ms:.0f} ms")
    print(f"  tenants:    {spec.tenants}")
    print(f"  timeline:   {len(spec.timeline)} operation(s)")
    for i, entry in enumerate(spec.timeline):
        extra = {
            k: v for k, v in entry.items() if k not in ("at_ms", "op")
        }
        detail = " ".join(f"{k}={v}" for k, v in sorted(extra.items()))
        print(f"    [{i}] t={float(entry['at_ms']):g} ms {entry['op']}"
              + (f" {detail}" if detail else ""))
    cadence = spec.checkpoint_every_ms
    print(f"  checkpoint: every {cadence:g} ms" if cadence > 0
          else "  checkpoint: disabled")
    print(f"  spec hash:  {spec.spec_hash()}")
    return 0


def _print_result(result: "OpsResult") -> bool:
    results = result.to_results()
    summary = results["ops_summary"]
    print(f"signature {results['signature']}")
    print(f"  requests:   {results['requests']} "
          f"({results['completed']} completed)")
    for outcome, count in results["outcomes"].items():
        print(f"    {outcome:<12s} {count}")
    print(f"  operations: {summary['ops_total']} "
          f"({summary['moves_total']} move(s))")
    for status, count in summary["ops_by_status"].items():
        print(f"    {status:<12s} {count}")
    for outcome, count in summary["moves_by_outcome"].items():
        print(f"    move:{outcome:<7s} {count}")
    print(f"  drains:     "
          f"{'clean' if summary['drains_clean'] else 'STRANDED FLOWS'}")
    print(f"  consistent: {results['consistent']} "
          f"({len(results['violations'])} violation(s))")
    print(f"  invariants: {'ok' if results['invariants_ok'] else 'BROKEN'}")
    cache = results["path_cache"]
    print(f"  path cache: {cache['hits']:.0f} hit(s) / "
          f"{cache['misses']:.0f} miss(es)")
    return bool(
        results["consistent"]
        and results["invariants_ok"]
        and summary["drains_clean"]
    )


def _finish_session(
    spec: "SessionSpec", result: "OpsResult", args: argparse.Namespace
) -> int:
    """``--manifest`` (``BENCH_ops_<name>.json``), the report, the verdict."""
    if args.manifest:
        path = write_manifest(
            f"ops_{spec.name}",
            params=spec.to_dict(),
            results=result.to_results(),
            seed=spec.serve_spec().seed,
            out_dir=args.out_dir,
        )
        print(f"wrote {path}")
    return report_ok(_print_result(result))


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _load(args.spec)
    if args.seeds is None:
        from repro.ops.session import run_session

        result = run_session(spec, obs=obs_from_flags(args))
        return _finish_session(spec, result, args)

    from repro.ops.sweep_kind import session_sweep

    sweep = session_sweep(spec, args.seeds, obs=args.obs)
    obs = obs_from_flags(args)
    results = run_fleet(
        sweep, args, obs,
        banner=f"ops {spec.name!r}: {args.seeds} seeded session(s)",
    )
    write_fleet_manifest(f"ops_fleet_{spec.name}", sweep, results, args, obs)
    aggregates = results["aggregates"]
    print(f"signature {results['signature']}")
    print(f"  requests:   {aggregates['requests']} "
          f"({aggregates['completed']} completed)")
    print(f"  operations: {aggregates['ops_by_status']}")
    print(f"  moves:      {aggregates['moves_by_outcome']}")
    print(f"  drains:     "
          f"{'clean' if aggregates['drains_clean'] else 'STRANDED FLOWS'}")
    print(f"  consistent: {aggregates['consistent']} "
          f"({aggregates['violations']} violation(s))")
    print(f"  deterministic per seed: {aggregates['deterministic']}")
    return report_ok(
        not results["failures"]
        and aggregates["consistent"]
        and aggregates["invariants_ok"]
        and aggregates["deterministic"]
        and aggregates["drains_clean"]
    )


def _checkpoint_sink(args: argparse.Namespace) -> "CheckpointSink":
    """The writer of rolling checkpoints to ``--dir``."""
    from repro.ops.checkpoint import CheckpointSink

    return CheckpointSink(args.dir, stop_after=args.stop_after, verbose=True)


def _run_checkpointed(
    session: "OpsSession", sink: "CheckpointSink", args: argparse.Namespace
) -> int:
    """Open ``sink``, the :func:`_checkpoint_sink` ``session`` was given,
    and run the session to its horizon (or to ``--stop-after``); a
    directory the sink may not write into is a :class:`CliError` before
    the first event."""
    from repro.ops.checkpoint import CheckpointError, StopSession

    try:
        sink.open(session)
        session.run()
    except StopSession as stop:
        print(f"stopped after checkpoint {stop.index} "
              f"(resume with: ops resume --dir {args.dir})")
        return 0
    except CheckpointError as exc:
        raise CliError(str(exc)) from None
    return _finish_session(session.spec, session.finalize(), args)


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    spec = _load(args.spec)
    if spec.checkpoint_every_ms <= 0:
        raise CliError(
            f"session {spec.name!r} has checkpoint_every_ms=0; "
            f"set a cadence to write checkpoints"
        )

    from repro.ops.session import build_session

    sink = _checkpoint_sink(args)
    session = build_session(spec, obs=obs_from_flags(args), sink=sink)
    return _run_checkpointed(session, sink, args)


def _cmd_resume(args: argparse.Namespace) -> int:
    from repro.ops.checkpoint import CheckpointError, load_checkpoint

    sink = _checkpoint_sink(args)
    try:
        session = load_checkpoint(args.dir, index=args.index, sink=sink)
    except CheckpointError as exc:
        raise CliError(str(exc)) from None
    print(f"resumed {session.spec.name!r} from checkpoint "
          f"{session.resumed_from} at t={session.engine.now:.1f} ms")
    return _run_checkpointed(session, sink, args)


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.ops.checkpoint import CheckpointError, read_manifest

    try:
        manifest = read_manifest(args.dir, check=False)
    except CheckpointError as exc:
        raise CliError(str(exc)) from None
    rows = manifest.get("checkpoints", [])
    print(f"session:     {manifest.get('name')}")
    print(f"spec hash:   {manifest.get('spec_hash')}")
    print(f"code:        {str(manifest.get('code_fingerprint'))[:16]}")
    print(f"checkpoints: {len(rows)}")
    if rows:
        print(f"latest:      index {rows[-1]['index']} "
              f"at t={rows[-1]['sim_time_ms']:.1f} ms")
    for row in rows:
        print(f"  [{row['index']}] t={row['sim_time_ms']:.1f} ms "
              f"{row['processed_events']} events digest={row['digest'][:16]}")
    return 0


def add_ops_parser(sub: argparse._SubParsersAction) -> None:
    parser = sub.add_parser(
        "ops", help="live operations sessions: drain / migrate / rebalance "
                    "with checkpoint + resume (repro.ops)"
    )
    ops_sub = parser.add_subparsers(dest="ops_command", required=True)

    pval = ops_sub.add_parser("validate", help="validate a session spec")
    pval.set_defaults(run=_cmd_validate)
    pval.add_argument("spec", help="path to a session spec JSON file")

    prun = ops_sub.add_parser(
        "run", help="run one session inline, or a seeded fleet with --seeds"
    )
    prun.set_defaults(run=_cmd_run)
    prun.add_argument("spec", help="path to a session spec JSON file")
    prun.add_argument(
        "--seeds", type=int, default=None,
        help="fan out as N seeded sessions via the sweep fleet, where "
             "--workers/--resume/--cache-dir apply "
             "(default: one inline session with the spec's own seed)",
    )
    add_fleet_flags(prun)
    add_output_flags(
        prun,
        obs="instrument with live metrics (ops moves, drain gauges)",
        manifest="write BENCH_ops_<name>.json (inline mode; fleet mode "
                 "always writes BENCH_ops_fleet_<name>.json)",
        out_dir=BENCH_DIR_HELP.format("ops"),
    )

    pckpt = ops_sub.add_parser(
        "checkpoint",
        help="run a session writing rolling signed checkpoints",
    )
    pckpt.set_defaults(run=_cmd_checkpoint)
    pckpt.add_argument("spec", help="path to a session spec JSON file")
    pckpt.add_argument(
        "--dir", required=True, help="checkpoint directory"
    )
    pckpt.add_argument(
        "--stop-after", type=int, default=None,
        help="halt the run right after this checkpoint index "
             "(the kill point for resume drills)",
    )
    add_output_flags(
        pckpt,
        obs="instrument with live metrics",
        manifest="write BENCH_ops_<name>.json when the run "
                 "reaches its horizon",
        out_dir=BENCH_DIR_HELP.format("ops"),
    )

    pres = ops_sub.add_parser(
        "resume", help="restore a checkpoint and continue to the horizon"
    )
    pres.set_defaults(run=_cmd_resume)
    pres.add_argument("--dir", required=True, help="checkpoint directory")
    pres.add_argument(
        "--index", type=int, default=None,
        help="checkpoint index to restore (default: latest)",
    )
    pres.add_argument(
        "--stop-after", type=int, default=None,
        help="halt again right after this checkpoint index",
    )
    add_output_flags(
        pres,
        manifest="write BENCH_ops_<name>.json at the horizon",
        out_dir=BENCH_DIR_HELP.format("ops"),
    )

    pstat = ops_sub.add_parser(
        "status", help="inspect a checkpoint directory"
    )
    pstat.set_defaults(run=_cmd_status)
    pstat.add_argument("--dir", required=True, help="checkpoint directory")
