"""Perf ledger v1 — the repo's benchmark.

Three ways in (see ``README.md`` beside this file):

* ``python benchmarks/perf/run.py [--seed N] [--workload NAME] [--traced]``
  — the ledger: every workload, output checks, every metric by name
  with its unit; writes ``out/ledger_seed<N>.json``; exits non-zero
  when a check fails.
* ``... --workload NAME --seed N --seconds S --trace 0|1`` — one
  workload for the benchmark driver; the last line of standard output
  is one JSON object (``correct``, ``attempted``, ``failed``,
  ``metrics``).
* ``... --compare A.json B.json`` — verdict per workload x metric.

How a run is made.  The host is shared and bursty, so each workload
runs in several fresh child processes (round-robin across workloads in
ledger mode, so drift lands evenly); each child sets up and then does a
few timed repeats of 0.4-0.6 CPU s, timing a fixed reference kernel
between them.  Timed numbers are user CPU time, calibrated by the
child's reference-kernel probes to the speed of a quiet host; system
and wall time are recorded beside them and never gated.  Load comes
from one thread of one process at a time.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Timed repeats per child at ``--seconds NOMINAL_SECONDS``.
REPEATS = 3
NOMINAL_SECONDS = 8
#: ``host_probe()`` on a quiet core of the re-anchor host: the speed
#: that calibrated CPU seconds are expressed in.
REFERENCE_KERNEL_S = 0.0190
CHILDREN = 5
CHILD_TIMEOUT_S = 150

#: Simulated-time results, compared exactly by ``--compare``:
#: name -> (unit, better, allowed worsening).  ``sim_*`` is relative,
#: the other two absolute.  They ride in BENCHMARK.json's ``per_layer``
#: list, because its ``end_to_end`` list takes only metrics that every
#: workload has and that are never 0 — where unit, direction and bound
#: of the three noisy end-to-end metrics are declared.
EXACT = {
    "sim_p50_ms": ("ms", "lower", 0.01),
    "sim_p95_ms": ("ms", "lower", 0.01),
    "failed_share": ("ratio", "lower", 0.002),
    "violations": ("count", "lower", 0.0),
}


def end_to_end() -> dict[str, tuple[str, str, float]]:
    """Every end-to-end metric: name -> (unit, better, bound)."""
    from layers import contract

    declared = {
        m["name"]: (m["unit"], m["better"], m["bound"])
        for m in contract()["end_to_end"]
    }
    return {**declared, **EXACT}


def _import_benchmark() -> tuple[Any, Any, Any]:
    """The benchmark's own modules, importable only from a checkout."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(f"error: no repro package under {SRC}\n")
        raise SystemExit(2)
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    import layers
    import spans
    import workloads

    return workloads, spans, layers


# -- child: one process, one workload ---------------------------------------


def _sample(workload: Any, outcome: Any, timing: dict[str, float]) -> dict:
    from workloads import percentile

    return dict(
        timing,
        ops=outcome.ops,
        failed_share=outcome.not_completed / outcome.ops,
        signature=outcome.signature,
        trace_signature=outcome.trace_signature,
        sim_p50_ms=percentile(outcome.sim_ms, 50) if workload.has_sim_p50 else None,
        sim_p95_ms=percentile(outcome.sim_ms, 95) if workload.has_sim_p95 else None,
        sim_samples=len(outcome.sim_ms),
        violations=outcome.violations if workload.has_violations else None,
        errors=outcome.errors,
    )


def _cpu() -> tuple[float, float]:
    """(user, system) CPU seconds of this process so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime, usage.ru_stime


class _Event:
    __slots__ = ("time", "seq", "args")

    def __init__(self, time: int, seq: int, args: tuple) -> None:
        self.time = time
        self.seq = seq
        self.args = args

    def __lt__(self, other: "_Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


def _reference_kernel() -> float:
    started = _cpu()[0]
    queue: list[_Event] = []
    counts: dict[tuple[int, int], int] = {}
    log = []
    for i in range(12000):
        heapq.heappush(queue, _Event((i * 7919) % 1000, i, (i,)))
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
        if i % 3 == 0:
            event = heapq.heappop(queue)
            log.append({"time": event.time, "kind": "k",
                        "detail": {"a": event.seq, "b": str(event.seq)}})
    sum(len(entry["detail"]["b"]) for entry in log)
    return _cpu()[0] - started


def host_probe() -> float:
    """User-CPU seconds of a fixed interpreter-bound kernel, best of 2.

    The kernel is shaped like the simulator's hot path — a heap of
    ordered objects, tuple-keyed dict updates, small dict allocations,
    string formatting — and touches nothing under ``src/``, so its time
    tracks the host's current speed and nothing else.  Dividing
    ``REFERENCE_KERNEL_S`` by a child's median probe gives the speed
    factor that calibrates that child's CPU times (see README, "Why
    calibrated CPU time").
    """
    return min(_reference_kernel(), _reference_kernel())


def _timed(workload: Any, state: Any) -> tuple[Any, dict[str, float]]:
    gc.collect()
    wall = time.perf_counter()
    user, system = _cpu()
    raw = workload.run(state)
    user_end, system_end = _cpu()
    return raw, {
        "cpu_s": user_end - user,
        "sys_s": system_end - system,
        "wall_s": time.perf_counter() - wall,
    }


def child_main(args: argparse.Namespace) -> int:
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    tempfile.tempdir = tmp  # sweep caches, checkpoints: inside the checkout
    workloads, spans, layers = _import_benchmark()
    workload = workloads.BY_NAME[args.workload]
    state = workload.setup(args.seed, args.scale)
    # Set-up ends where the first timed repeat starts; process CPU
    # time counts from interpreter start, imports included.
    doc: dict[str, Any] = {
        "workload": workload.name, "seed": args.seed,
        "setup_s": _cpu()[0], "samples": [],
    }
    probes = [host_probe()]
    for _ in range(args.repeats):
        raw, timing = _timed(workload, state)
        probes.append(host_probe())
        outcome = workload.check(state, raw)
        doc["samples"].append(_sample(workload, outcome, timing))
        del raw
    # One speed factor per child: its probes bracket every repeat.
    doc["speed_factor"] = REFERENCE_KERNEL_S / statistics.median(probes)
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.traced:
        doc["layers"] = _traced_pass(
            workload, state, dict(doc["samples"][-1], speed_factor=doc["speed_factor"]),
            outcome.extras, spans, layers,
        )
    print(json.dumps(doc))
    return 0


def _traced_pass(workload: Any, state: Any, untraced: dict, extras: dict,
                 spans: Any, layers: Any) -> dict[str, Any]:
    """One repeat under ``spans``, one tenth-size call-count repeat."""
    from repro.consistency.state import ForwardingState

    gc.collect()
    recorder = spans.install()
    recorder.run_id = 1
    try:
        wall = time.perf_counter()
        cpu = _cpu()[0]
        raw = recorder.call(
            recorder.name_id(spans.ROOT_SPAN), workload.run, (state,), {}
        )
        traced = {
            "cpu_s": _cpu()[0] - cpu,
            "wall_s": time.perf_counter() - wall,
        }
    finally:
        spans.uninstall()
    outcome = workload.check(state, raw)
    sample = _sample(workload, outcome, traced)
    errors = list(outcome.errors)
    for key in ("signature", "trace_signature", *EXACT):
        if sample[key] != untraced[key]:
            errors.append(f"traced {key} {sample[key]!r} != untraced {untraced[key]!r}")

    small = workload.small(state)
    small_raw: list[Any] = []
    counts = layers.count_calls(
        lambda: small_raw.append(workload.run(small)),
        {"walks": ForwardingState.walk},
    )
    calls = {
        "ops": workload.check(small, small_raw[0]).ops,
        "calls": counts["*"],
        "walks": counts["walks"],
    }
    extras = dict(extras, **workload.trace_extras(state))
    metrics = layers.layer_metrics(
        workload, recorder, outcome.ops, untraced, traced, calls, extras
    )
    for key in EXACT:
        if sample[key] is not None:
            metrics[key] = sample[key]

    os.makedirs(OUT, exist_ok=True)
    trace_doc = recorder.to_doc()
    trace_doc.update(
        workload=workload.name, ops=outcome.ops, traced=traced,
        untraced={k: untraced[k] for k in ("cpu_s", "wall_s")},
        call_count_pass=calls, metrics=metrics,
    )
    with open(os.path.join(OUT, f"trace_{workload.name}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(trace_doc, handle)
    return {"metrics": metrics, "errors": errors, "ops": outcome.ops}


# -- parent: launch children, aggregate -------------------------------------


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, scale: float, repeats: int,
              traced: bool = False) -> dict:
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", workload, "--seed", str(seed),
        "--scale", repr(scale), "--repeats", str(repeats),
    ]
    if traced:
        command.append("--traced")
    proc = subprocess.run(
        command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise ChildFailed(
            f"{workload}: child exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeats_for(seconds: float) -> int:
    return max(2, round(REPEATS * seconds / NOMINAL_SECONDS))


def summarize(values: list[float]) -> dict[str, Any]:
    """Median, quartiles and count of a timing series."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values), "q1": q1, "q3": q3,
        "n": len(values), "samples": values,
    }


def aggregate(workload: Any, docs: list[dict]) -> dict[str, Any]:
    """One workload's end-to-end metrics and checks from its children."""
    samples = [s for doc in docs for s in doc["samples"]]
    errors = sorted({e for s in samples for e in s["errors"]})
    for key in ("signature", "trace_signature", *EXACT):
        seen = {json.dumps(s[key]) for s in samples}
        if len(seen) != 1:
            errors.append(f"{key} differs between repeats: {sorted(seen)[:3]}")
    first = samples[0]
    # Calibrated CPU seconds: what the work would have cost at the
    # reference host speed, judged by the child's own probes.
    metrics: dict[str, dict] = {
        "setup_s": summarize([d["setup_s"] * d["speed_factor"] for d in docs]),
        "ops_per_cpu_s": summarize([
            s["ops"] / (s["cpu_s"] * d["speed_factor"])
            for d in docs for s in d["samples"]
        ]),
        "peak_rss_mb": dict(
            summarize([d["peak_rss_mb"] for d in docs]),
            value=max(d["peak_rss_mb"] for d in docs),
        ),
    }
    for key in EXACT:
        if first[key] is not None:
            metrics[key] = {"value": first[key], "n": len(samples), "exact": True}
    if errors:
        metrics["failed_share"] = {"value": 1.0, "n": len(samples), "exact": True}
    declared = end_to_end()
    for name, metric in metrics.items():
        metric["unit"] = declared[name][0]
    median = statistics.median
    wall_over_cpu = median(
        s["wall_s"] / (s["cpu_s"] + s["sys_s"]) for s in samples
    )
    attempted = sum(s["ops"] for s in samples)
    return {
        "op": workload.op,
        "why": workload.why,
        "metrics": metrics,
        "signature": first["signature"],
        "trace_signature": first["trace_signature"],
        "sim_samples": first["sim_samples"],
        "errors": errors,
        "attempted": attempted,
        "host": {
            "raw_ops_per_cpu_s": median(s["ops"] / s["cpu_s"] for s in samples),
            "raw_setup_s": median(d["setup_s"] for d in docs),
            "speed_factor": median(d["speed_factor"] for d in docs),
            "sys_share": median(
                s["sys_s"] / (s["cpu_s"] + s["sys_s"]) for s in samples
            ),
            "wall_over_cpu": wall_over_cpu,
        },
        "contended": wall_over_cpu > 1.5,
    }


def measure(names: list[str], seed: int, scale: float, seconds: float,
            children: int, traced: bool = False) -> dict[str, dict]:
    """Run ``children`` fresh processes per workload, round-robin.

    With ``traced`` the last child of each workload adds the per-layer
    pass after its timed repeats (and after its peak RSS is read)."""
    workloads, _, _ = _import_benchmark()
    docs: dict[str, list[dict]] = {name: [] for name in names}
    repeats = repeats_for(seconds)
    for child in range(children):
        for name in names:
            docs[name].append(run_child(
                name, seed, scale, repeats, traced and child == children - 1
            ))
    results = {}
    for name in names:
        results[name] = aggregate(workloads.BY_NAME[name], docs[name])
        if traced:
            layers = docs[name][-1]["layers"]
            results[name]["layers"] = layers["metrics"]
            results[name]["errors"] += layers["errors"]
    return results


def host_record(seed: int) -> dict[str, Any]:
    commit = "unknown"
    try:
        found = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if found.returncode == 0:
            commit = found.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "seed": seed,
        "commit": commit,
    }


# -- the ledger ---------------------------------------------------------------


def _format(value: float) -> str:
    return f"{value:.4g}" if abs(value) < 1000 else f"{value:.1f}"


def print_ledger(ledger: dict) -> None:
    host = ledger["host"]
    print(
        f"perf ledger: seed {host['seed']}  commit {host['commit'][:12]}  "
        f"python {host['python']}  nproc {host['nproc']}  "
        f"loadavg {' '.join(f'{x:.2f}' for x in host['loadavg'])}"
    )
    for name, result in ledger["workloads"].items():
        print(f"\n{name}  (op = {result['op']})")
        print(f"  signature        {result['signature']}")
        if result["trace_signature"]:
            print(f"  trace_signature  {result['trace_signature']}")
        for metric, (unit, _, _) in end_to_end().items():
            entry = result["metrics"].get(metric)
            if entry is None:
                print(f"  {metric:<28} omitted on this workload")
            elif entry.get("exact"):
                print(f"  {metric:<28} {_format(entry['value']):>10} {unit:<6} "
                      f"exact, identical in n={entry['n']} repeats"
                      + (f", over {result['sim_samples']} latencies"
                         if metric.startswith("sim_") else ""))
            else:
                print(f"  {metric:<28} {_format(entry['value']):>10} {unit:<6} "
                      f"q1 {_format(entry['q1'])}  q3 {_format(entry['q3'])}  "
                      f"n={entry['n']}")
        flag = "  contended: true" if result["contended"] else ""
        host = result["host"]
        print(f"  host: raw {_format(host['raw_ops_per_cpu_s'])} op/s, "
              f"raw set-up {_format(host['raw_setup_s'])} s, "
              f"speed factor {_format(host['speed_factor'])}, "
              f"sys share {_format(host['sys_share'])}, "
              f"wall/cpu {_format(host['wall_over_cpu'])}{flag}")
        for metric, value in sorted(result.get("layers", {}).items()):
            print(f"    {metric:<32} {_format(value):>10} {_unit_of(metric)}")
        for error in result["errors"]:
            print(f"  CHECK FAILED: {error}")


def _unit_of(metric: str) -> str:
    from layers import per_layer_units

    return per_layer_units().get(metric, "")


def ledger_main(args: argparse.Namespace) -> int:
    workloads, _, _ = _import_benchmark()
    names = [args.workload] if args.workload else list(workloads.BY_NAME)
    results = measure(
        names, args.seed, args.scale, args.seconds, args.children, args.traced
    )
    ledger = {"host": host_record(args.seed), "workloads": results}
    os.makedirs(OUT, exist_ok=True)
    path = args.out or os.path.join(OUT, f"ledger_seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=1)
    print_ledger(ledger)
    print(f"\nwrote {os.path.relpath(path)}")
    failed = [name for name, result in results.items() if result["errors"]]
    if failed:
        print(f"FAILED output checks: {', '.join(failed)}")
        return 1
    return 0


# -- the benchmark driver's protocol --------------------------------------------


def driver_main(args: argparse.Namespace) -> int:
    _, _, layers = _import_benchmark()
    name = args.workload
    if args.trace:
        traced = run_child(
            name, args.seed, args.scale, repeats=1, traced=True
        )["layers"]
        # The driver wants every declared name on every workload; a
        # metric that does not apply to this one reads 0.
        units = layers.per_layer_units()
        values = dict(dict.fromkeys(units, 0.0), **traced["metrics"])
        metrics = {
            metric: {"value": float(value), "unit": units[metric]}
            for metric, value in values.items()
        }
        errors = traced["errors"]
        attempted = traced["ops"]
    else:
        result = measure(
            [name], args.seed, args.scale, args.seconds, args.children
        )[name]
        metrics = {
            m["name"]: {
                "value": result["metrics"][m["name"]]["value"],
                "unit": m["unit"],
            }
            for m in layers.contract()["end_to_end"]
        }
        errors = result["errors"]
        attempted = result["attempted"]
    for error in errors:
        print(f"CHECK FAILED: {error}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": attempted if errors else 0,
        "metrics": metrics,
    }))
    return 0


# -- compare ------------------------------------------------------------------


def verdict(metric: str, a: dict, b: dict) -> str:
    """``same`` / ``worse`` / ``better`` / ``unresolved`` for B against A."""
    _, better, bound = end_to_end()[metric]
    sign = 1.0 if better == "lower" else -1.0
    if metric in EXACT:
        # Absolute bounds; sim_* are deterministic, so relative to A.
        scale = abs(a["value"]) if metric.startswith("sim_") else 1.0
        worse_by = sign * (b["value"] - a["value"])
        if worse_by > bound * scale:
            return "worse"
        return "better" if -worse_by > bound * scale else "same"
    worse_by = sign * (b["value"] - a["value"]) / a["value"]
    spread = max(
        (entry["q3"] - entry["q1"]) / entry["value"] for entry in (a, b)
    )
    overlap = (
        min(a["samples"]) <= max(b["samples"])
        and min(b["samples"]) <= max(a["samples"])
    )
    if spread > bound and overlap:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    return "better" if -worse_by > bound else "same"


def compare_main(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as handle:
        ledger_a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        ledger_b = json.load(handle)
    print(f"A = {path_a} (commit {ledger_a['host']['commit'][:12]}, "
          f"seed {ledger_a['host']['seed']})")
    print(f"B = {path_b} (commit {ledger_b['host']['commit'][:12]}, "
          f"seed {ledger_b['host']['seed']})")
    print(f"{'workload':<24}{'metric':<16}{'A':>10}{'B':>10}  "
          f"{'A q1..q3':<20}{'B q1..q3':<20}{'bound':>7}  verdict")
    worse = 0
    for name, result_a in ledger_a["workloads"].items():
        result_b = ledger_b["workloads"].get(name)
        if result_b is None:
            print(f"{name:<24}missing from B")
            worse += 1
            continue
        for metric, (_, _, bound) in end_to_end().items():
            a = result_a["metrics"].get(metric)
            b = result_b["metrics"].get(metric)
            if a is None and b is None:
                continue
            if a is None or b is None:
                print(f"{name:<24}{metric:<16} present on one side only")
                worse += 1
                continue
            outcome = verdict(metric, a, b)
            worse += outcome == "worse"
            quartiles = [
                "exact" if e.get("exact")
                else f"{_format(e['q1'])}..{_format(e['q3'])}"
                for e in (a, b)
            ]
            print(f"{name:<24}{metric:<16}{_format(a['value']):>10}"
                  f"{_format(b['value']):>10}  {quartiles[0]:<20}"
                  f"{quartiles[1]:<20}{bound:>7}  {outcome}")
    print(f"{worse} worse")
    return 1 if worse else 0


# -- entry point ----------------------------------------------------------------


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS,
                        help="CPU seconds of timed repeats per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver protocol: 0 end-to-end, 1 per-layer")
    parser.add_argument("--traced", action="store_true",
                        help="ledger: add the per-layer pass")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every workload (self-check only)")
    parser.add_argument("--children", type=int, default=CHILDREN)
    parser.add_argument("--out", default=None, help="ledger file to write")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--repeats", type=int, default=1, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare_main(*args.compare)
    workloads, _, _ = _import_benchmark()
    if args.workload is not None and args.workload not in workloads.BY_NAME:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(workloads.BY_NAME)}")
    if args.child:
        return child_main(args)
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return driver_main(args)
    return ledger_main(args)


if __name__ == "__main__":
    sys.exit(main())
