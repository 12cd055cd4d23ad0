"""Command-line interface: ``p4update-repro <command>``.

Commands regenerate individual experiments without pytest:

* ``fig2`` — the §4.1 inconsistent-update demonstration;
* ``fig4`` — the §4.2 fast-forward CDF;
* ``fig7 <scenario>`` — one Fig. 7 cell (a-f);
* ``fig8`` — the control-plane preparation ratios;
* ``demo`` — a quick single-flow update walk-through with tracing;
* ``obs`` — observability tooling: export an instrumented demo run as
  a JSONL trace, then ``filter``/``summary`` over any exported trace;
* ``analyze`` — static verification: the sim-purity linter, the
  update-plan verifier and the pipeline analyzer
  (:mod:`repro.analysis`);
* ``chaos`` — robustness: run declarative fault-injection campaigns
  and assert consistency + determinism (:mod:`repro.chaos`);
* ``sweep`` — fleet orchestration: expand a declarative sweep spec
  into shards and execute them across worker processes with crash
  isolation, resume and a consolidated manifest (:mod:`repro.sweep`);
* ``fuzz`` — coverage-guided scenario fuzzing: seeded campaigns
  sharded through the sweep fleet, automatic shrinking, a committed
  regression corpus with replay (:mod:`repro.fuzz`);
* ``serve`` — the tenant-facing concurrent update-request service:
  admission control, dependency-aware orchestration and SLO metrics
  over the verified update path (:mod:`repro.serve`);
* ``ops`` — live operations sessions over a running service: tenant
  migration, rolling switch drains, capacity rebalancing, and
  checkpoint/resume by replaying the session spec (:mod:`repro.ops`).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from typing import Iterator

from repro.harness.scenarios import FIG7_SCENARIOS
from repro.loading import replacing, write_json_atomic
from repro.obs.context import NULL_OBS, make_obs
from repro.sweep.cli import CliError, add_fleet_flags, load_or_exit, run_fleet


def cmd_fig2(args) -> int:
    from repro.harness.fig_experiments import run_fig2
    from repro.params import SimParams

    for system in ("ezsegway", "p4update"):
        result = run_fig2(system, params=SimParams(seed=args.seed))
        delivered = len({o.seq for o in result.delivered_at_v4})
        print(
            f"{system:10s} probes={result.probes_sent:4d} "
            f"looped_seqs={len(result.duplicates_at_v1):3d} "
            f"ttl_losses={result.ttl_losses:3d} delivered={delivered:4d}"
        )
    return 0


def cmd_fig4(args) -> int:
    import numpy as np

    from repro.harness.fig_experiments import run_fig4
    from repro.harness.metrics import summarize
    from repro.params import SimParams

    times = {"p4update": [], "ezsegway": []}
    for seed in range(args.runs):
        params = SimParams(seed=seed).with_dionysus_install_delay()
        for system in times:
            times[system].append(run_fig4(system, params=params).u3_completion_ms)
    for system, samples in times.items():
        print(summarize(samples).row(system))
    speedup = np.mean(times["ezsegway"]) / np.mean(times["p4update"])
    print(f"speedup: {speedup:.1f}x (paper: about 4x)")
    return 0


def cmd_fig7(args) -> int:
    from repro.harness.fig_experiments import fig7_sweep_spec
    from repro.harness.metrics import summarize
    from repro.harness.scenarios import FIG7_SYSTEMS

    spec = fig7_sweep_spec(args.scenario, runs=args.runs, seed=args.seed)
    results = run_fleet(spec, args)
    aggregates = results["aggregates"]
    cell = "/".join(FIG7_SCENARIOS[args.scenario])
    for system in FIG7_SYSTEMS:
        times = aggregates["cells"][f"{cell}/{system}"]["times"]
        print(summarize(times).row(system))
    print(f"skipped scenarios: {aggregates['skipped_groups']}")
    return 1 if results["failures"] else 0


def cmd_fig8(args) -> int:
    from repro.harness.prep import FIG8_LABELS, fig8_sweep_spec

    spec = fig8_sweep_spec(
        updates=args.updates, count_updates=args.count_updates, seed=args.seed
    )
    results = run_fleet(spec, args)
    print(f"deterministic operation counts ({args.count_updates} updates)")
    for topology, row in results["aggregates"]["topologies"].items():
        label = FIG8_LABELS.get(topology, topology)
        print(f"{label:22s} p4={row['p4update_ops']:8d} "
              f"ez={row['ez_ops']:8d} ez+cong={row['ez_congestion_ops']:9d}  "
              f"ratio_a={row['ratio_a']:5.2f}  ratio_b={row['ratio_b']:7.4f}")
    return 1 if results["failures"] else 0


def cmd_run(args) -> int:
    from repro.harness.spec import SpecError, run_spec_file

    result = load_or_exit(run_spec_file, args.spec, "spec", SpecError)
    print(f"system:     {result.system}")
    print(f"completed:  {result.completed}")
    print(f"consistent: {result.consistency_ok} ({result.violations} violations)")
    print(f"update time: {result.total_update_time_ms:.1f} ms (slowest flow)")
    for flow_id, duration in sorted(result.per_flow_ms.items()):
        print(f"  flow {flow_id}: {duration:.1f} ms")
    return 0 if result.completed and result.consistency_ok else 1


def _demo_deployment(seed: int, obs=NULL_OBS):
    """The Fig. 1 network under ``obs``, and the flow on its old path
    (not yet installed)."""
    from repro.harness.build import build_p4update_network
    from repro.params import SimParams
    from repro.topo.synthetic import FIG1_OLD_PATH, fig1_topology
    from repro.traffic.flows import Flow

    deployment = build_p4update_network(
        fig1_topology(), params=SimParams(seed=seed), obs=obs
    )
    return deployment, Flow.between(
        "v0", "v7", size=1.0, old_path=list(FIG1_OLD_PATH)
    )


def cmd_demo(args) -> int:
    from repro.core.messages import UpdateType
    from repro.sim.trace import KIND_RULE_CHANGE, TraceEvent
    from repro.topo.synthetic import FIG1_NEW_PATH

    deployment, flow = _demo_deployment(args.seed)
    rule_changes: list[TraceEvent] = []
    deployment.network.trace.subscribe(rule_changes.append, (KIND_RULE_CHANGE,))
    deployment.install_flow(flow)
    deployment.controller.update_flow(
        flow.flow_id, list(FIG1_NEW_PATH), UpdateType.DUAL
    )
    deployment.run()
    print(f"update complete: {deployment.controller.update_complete(flow.flow_id)}")
    print(f"consistent at every instant: {deployment.checker.ok}")
    for event in rule_changes:
        print(f"  {event.time:8.2f} ms  {event.node} -> {event.detail.get('next_hop')}")
    return 0


def cmd_obs_export(args) -> int:
    from repro.core.messages import UpdateType
    from repro.obs.sampler import Sampler, format_samples
    from repro.obs.tracefile import export_trace_jsonl
    from repro.topo.synthetic import FIG1_NEW_PATH

    obs = make_obs()
    with Sampler() if args.profile else contextlib.nullcontext() as sampler:
        deployment, flow = _demo_deployment(args.seed, obs)
        deployment.install_flow(flow)
        with obs.spans.span("experiment", system="p4update", topology="fig1", flows=1):
            with obs.spans.span("uim_fanout"):
                deployment.controller.update_flow(
                    flow.flow_id, list(FIG1_NEW_PATH), UpdateType.DUAL
                )
            with obs.spans.span("run_to_quiescence"):
                deployment.run()
    count = export_trace_jsonl(deployment.network.trace, args.out)
    print(f"wrote {count} events to {args.out}")
    done = deployment.controller.update_complete(flow.flow_id)
    print(f"update complete: {done}")
    snapshot = obs.snapshot()
    print("metrics:")
    for name, series in sorted(snapshot["metrics"].items()):
        total = sum(
            entry.get("value", entry.get("count", 0)) for entry in series
        )
        print(f"  {name:<28s} series={len(series):3d} total={total:g}")
    print("spans:")
    for root in obs.spans.roots:
        _print_span(root, indent=1)
    if sampler is not None:
        print(format_samples(sampler.report()))
    return 0


@contextlib.contextmanager
def _reading(noun: str, path: str) -> Iterator[None]:
    """Report an unreadable or foreign ``path`` as a :class:`CliError`.
    The readers stream (one event in memory at a time, plain or ``.gz``),
    so the failure can surface anywhere in the verb's body."""
    try:
        yield
    except BrokenPipeError:
        raise                     # __main__ exits quietly on closed pipes
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read {noun} {path!r}: {exc}") from None


@contextlib.contextmanager
def _writing(noun: str, path: str) -> Iterator[None]:
    """Report an unwritable output ``path`` as a :class:`CliError`
    naming ``path`` as given (not the writer's temp file)."""
    try:
        yield
    except OSError as exc:
        raise CliError(f"cannot write {noun} {path!r}: {exc.strerror or exc}") from None


def cmd_obs_filter(args) -> int:
    from repro.obs.tracefile import (
        event_to_dict,
        export_trace_jsonl,
        iter_filter_events,
        iter_trace_jsonl,
        open_jsonl,
    )

    with _reading("trace", args.trace):
        selected = iter_filter_events(
            iter_trace_jsonl(args.trace),
            kinds=args.kind or None, nodes=args.node or None,
            t0=args.t0, t1=args.t1,
        )
        if args.out == "-":
            for event in selected:
                print(json.dumps(event_to_dict(event)))
        else:
            # Written beside --out and moved onto it only once the whole
            # input has read cleanly: a malformed line leaves no --out.
            with _writing("trace", args.out), replacing(args.out) as tmp:
                handle, _owned = open_jsonl(tmp, "w")
                with handle, _reading("trace", args.trace):
                    count = export_trace_jsonl(selected, handle)
            print(f"wrote {count} events to {args.out}")
    return 0


def cmd_obs_summary(args) -> int:
    from repro.obs.tracefile import iter_trace_jsonl, summarize_events

    with _reading("trace", args.trace):
        report = summarize_events(iter_trace_jsonl(args.trace))
    print(f"events:  {report['events']}")
    if report["events"]:
        print(f"first:   {report['t_first_ms']:.3f} ms")
        print(f"last:    {report['t_last_ms']:.3f} ms")
        print(f"span:    {report['span_ms']:.3f} ms")
    print("by kind:")
    for kind, count in sorted(report["by_kind"].items()):
        print(f"  {kind:<20s} {count}")
    print("by node:")
    for node, count in sorted(report["by_node"].items()):
        print(f"  {node:<20s} {count}")
    return 0


# The causal verbs read a TRACE_*.causal.jsonl[.gz] sidecar (written by
# ``serve run --causal``).


def cmd_obs_requests(args) -> int:
    from repro.obs.causal import iter_causal_jsonl

    print(f"{'shard':<14s} {'req':>4s} {'flow':>4s} "
          f"{'outcome':<12s} {'e2e ms':>10s}  top segments")
    with _reading("causal file", args.causal):
        for dag in iter_causal_jsonl(args.causal):
            top = sorted(
                (
                    (seg, dur)
                    for seg, dur in dag["segments"].items()
                    if dur > 0.0
                ),
                key=lambda kv: -kv[1],
            )[:3]
            breakdown = "  ".join(
                f"{seg}={dur:.3f}" for seg, dur in top
            ) or "-"
            print(f"{str(dag.get('shard_id', '-')):<14s} "
                  f"{dag['request_id']:>4d} {dag['flow_id']:>4d} "
                  f"{str(dag.get('outcome')):<12s} "
                  f"{dag['e2e_ms']:>10.3f}  {breakdown}")
    return 0


def cmd_obs_critical_path(args) -> int:
    from repro.obs.causal import critical_path, iter_causal_jsonl

    with _reading("causal file", args.causal):
        for dag in iter_causal_jsonl(args.causal):
            if dag["request_id"] != args.request:
                continue
            if args.seed is not None and dag.get("seed") != args.seed:
                continue
            report = critical_path(dag)
            print(f"request {report['request_id']} "
                  f"(flow {report['flow_id']}, {report['outcome']}): "
                  f"{report['e2e_ms']:.3f} ms end-to-end")
            for step in report["steps"]:
                print(f"  {step['t0']:>10.3f} -> {step['t1']:>10.3f} ms "
                      f"{step['segment']:<17s} {step['dur_ms']:>9.3f} ms  "
                      f"{step['from']} -> {step['to']} @{step['node']}")
            print("attribution:")
            for segment, total in report["segment_totals"].items():
                if total > 0.0:
                    print(f"  {segment:<17s} {total:>9.3f} ms")
            return 0
    raise CliError(f"no request {args.request} in {args.causal!r}")


def cmd_obs_perfetto(args) -> int:
    from repro.obs.causal import iter_causal_jsonl, perfetto_trace

    with _reading("causal file", args.causal):
        doc = perfetto_trace(iter_causal_jsonl(args.causal))
    with _writing("perfetto trace", args.out):
        write_json_atomic(args.out, doc)
    print(f"wrote {len(doc['traceEvents'])} trace events to "
          f"{args.out} (open in ui.perfetto.dev)")
    return 0


def _print_span(span, indent: int = 0) -> None:
    pad = "  " * indent
    sim = f"{span.sim_ms:.3f}" if span.sim_ms is not None else "-"
    print(f"{pad}{span.name}: sim={sim} ms wall={span.wall_ms:.3f} ms")
    for child in span.children:
        _print_span(child, indent + 1)


_CAUSAL_HELP = "path to a TRACE_*.causal.jsonl[.gz] sidecar"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole command tree.  Every leaf names its handler where it is
    declared (``set_defaults(run=...)``), so the tree is the command
    table; each package's ``cli.py`` attaches its own group.

    Built once per process: every :func:`main` parses with this tree,
    and its handlers are the functions bound at the first build.
    Parsing leaves no state on a parser (an append action copies its
    default), so a parse does not depend on the ones before it."""
    from repro.algos.cli import add_compete_parser
    from repro.analysis.cli import add_analyze_parser
    from repro.chaos.cli import add_chaos_parser
    from repro.fuzz.cli import add_fuzz_parser
    from repro.ops.cli import add_ops_parser
    from repro.serve.cli import add_serve_parser
    from repro.sweep.cli import add_sweep_parser

    parser = argparse.ArgumentParser(
        prog="p4update-repro",
        description="Regenerate the P4Update (CoNEXT'21) experiments.",
    )
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)
    p2 = sub.add_parser("fig2", help="§4.1 inconsistent-update demo")
    p2.set_defaults(run=cmd_fig2)
    p4 = sub.add_parser("fig4", help="§4.2 fast-forward CDF")
    p4.set_defaults(run=cmd_fig4)
    p4.add_argument("--runs", type=int, default=30)
    p7 = sub.add_parser("fig7", help="one Fig. 7 cell (sweep-executed)")
    p7.set_defaults(run=cmd_fig7)
    p7.add_argument("scenario", choices=sorted(FIG7_SCENARIOS))
    p7.add_argument("--runs", type=int, default=15)
    add_fleet_flags(p7)
    p8 = sub.add_parser(
        "fig8", help="control-plane preparation ratios (sweep-executed)"
    )
    p8.set_defaults(run=cmd_fig8)
    add_fleet_flags(p8)
    p8.add_argument("--updates", type=int, default=1000,
                    help="updates per wall-clock timing loop")
    p8.add_argument("--count-updates", type=int, default=50,
                    help="updates per deterministic operation count")
    pdemo = sub.add_parser("demo", help="traced Fig. 1 DL update walk-through")
    pdemo.set_defaults(run=cmd_demo)
    prun = sub.add_parser("run", help="execute a JSON experiment spec")
    prun.set_defaults(run=cmd_run)
    prun.add_argument("spec", help="path to the spec file")
    pobs = sub.add_parser(
        "obs",
        help="observability: trace export / filter / summary, "
             "causal requests / critical-path / perfetto",
    )
    obs_sub = pobs.add_subparsers(dest="obs_command", required=True)
    pexp = obs_sub.add_parser(
        "export", help="run the instrumented Fig. 1 demo and export its trace"
    )
    pexp.set_defaults(run=cmd_obs_export)
    pexp.add_argument("--out", default="TRACE.jsonl", help="output JSONL path")
    pexp.add_argument(
        "--profile", action="store_true",
        help="also sample CPU per function and per layer",
    )
    pfil = obs_sub.add_parser("filter", help="filter an exported JSONL trace")
    pfil.set_defaults(run=cmd_obs_filter)
    pfil.add_argument("trace", help="path to a JSONL trace")
    pfil.add_argument("--kind", action="append", help="keep this event kind (repeatable)")
    pfil.add_argument("--node", action="append", help="keep this node (repeatable)")
    pfil.add_argument("--t0", type=float, default=None, help="keep events at/after this ms")
    pfil.add_argument("--t1", type=float, default=None, help="keep events at/before this ms")
    pfil.add_argument("--out", default="-", help="output path, or - for stdout")
    psum = obs_sub.add_parser("summary", help="summarize an exported JSONL trace")
    psum.set_defaults(run=cmd_obs_summary)
    psum.add_argument("trace", help="path to a JSONL trace")
    preq = obs_sub.add_parser(
        "requests",
        help="per-request latency attribution table from a causal sidecar",
    )
    preq.set_defaults(run=cmd_obs_requests)
    preq.add_argument("causal", help=_CAUSAL_HELP)
    pcp = obs_sub.add_parser(
        "critical-path", help="critical path of one request's causal DAG"
    )
    pcp.set_defaults(run=cmd_obs_critical_path)
    pcp.add_argument("causal", help=_CAUSAL_HELP)
    pcp.add_argument(
        "--request", type=int, required=True, help="request id to extract"
    )
    pcp.add_argument(
        "--seed", type=int, default=None,
        help="disambiguate across seeded replicas (default: first match)",
    )
    pperf = obs_sub.add_parser(
        "perfetto",
        help="export request DAGs as Chrome trace-event JSON (ui.perfetto.dev)",
    )
    pperf.set_defaults(run=cmd_obs_perfetto)
    pperf.add_argument("causal", help=_CAUSAL_HELP)
    pperf.add_argument(
        "--out", default="TRACE_perfetto.json", help="output JSON path"
    )
    add_analyze_parser(sub)
    add_chaos_parser(sub)
    add_compete_parser(sub)
    add_fuzz_parser(sub)
    add_ops_parser(sub)
    add_serve_parser(sub)
    add_sweep_parser(sub)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":  # pragma: no cover
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pipe (e.g. ``| head``) closed early; exit quietly.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
