"""The seven pinned workloads of the perf ledger.

Every workload has the same three steps:

* ``setup(seed, scale)`` — build the inputs from ``seed`` and compute
  whatever reference the output check compares against (untimed,
  reported as part of ``setup_s``);
* ``run(state)`` — one timed repeat, calling only public entry points
  of ``repro``;
* ``check(state, raw)`` — turn the repeat's result into an
  :class:`Outcome` and run the output checks (untimed).

What ``--seed`` controls.  Flow populations, arrival schedules and
Fig. 7 scenarios are pinned parts of each workload's definition
(``POPULATION_SEED``): CPU cost per request follows the path lengths of
the population drawn, and across populations it spread by 30 % (IQR /
median, ``serve_b4_8f``) with simulated p50 latency varying 2x — no
10 % bound survives that.  ``--seed`` instead seeds everything
stochastic *inside* the run: ``SimParams.seed`` (every delay the
simulator samples, hence the interleaving of all messages), the chaos
flap schedule, and the order ``fig8_prep`` walks its flows in.
Signatures therefore differ from seed to seed while the amount of work
stays comparable.

Sizes are per timed repeat at ``scale`` 1 and were chosen so a repeat
takes 0.4–0.7 CPU s on a quiet core of the re-anchor host.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.chaos.runner import TOPOLOGIES
from repro.core.messages import UpdateType
from repro.harness import cli as repro_cli
from repro.harness.prep import count_operations, prep_workload
from repro.obs import make_obs
from repro.serve import ServeSpec, run_service
from repro.sweep import build_sweep_results, load_sweep_spec, run_sweep

#: Seeds the pinned parts of every workload (see module docstring).
POPULATION_SEED = 0

_FLAP_STREAM = 0xF1A9
_ORDER_STREAM = 0xF168


@dataclass
class Outcome:
    """What one repeat produced, reduced to what the ledger reports."""

    ops: int
    not_completed: int          # numerator of failed_share
    signature: str
    trace_signature: str = ""
    sim_ms: list[float] = field(default_factory=list)
    violations: Optional[int] = None
    errors: list[str] = field(default_factory=list)
    #: Per-layer metrics the workload measures itself, by metric name.
    extras: dict[str, float] = field(default_factory=dict)


def percentile(values: list[float], pct: int) -> Optional[float]:
    """Nearest-rank percentile (the definition ``repro.serve`` uses)."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[rank - 1]


def _scaled(count: int, scale: float, floor: int) -> int:
    return max(floor, int(round(count * scale)))


class Workload:
    name = ""
    why = ""
    op = ""
    #: Workloads that report no simulated latency / no checker count.
    has_sim_p50 = True
    has_sim_p95 = True
    has_violations = True

    def setup(self, seed: int, scale: float) -> Any:
        raise NotImplementedError

    def run(self, state: Any) -> Any:
        raise NotImplementedError

    def check(self, state: Any, raw: Any) -> Outcome:
        raise NotImplementedError

    def small(self, state: Any) -> Any:
        """A tenth-size state for the exact call-count pass."""
        raise NotImplementedError

    def trace_extras(self, state: Any) -> dict[str, float]:
        """Extra measurements made in the traced pass only."""
        return {}


# -- serve -------------------------------------------------------------------


def _e2e_ms(records: list[dict]) -> list[float]:
    return [
        r["completed_ms"] - r["submitted_ms"]
        for r in records
        if r["outcome"] == "completed"
    ]


class _ServeWorkload(Workload):
    op = "request"
    requests = 0
    spec_fields: dict[str, Any] = {}
    chaos_free = True

    def spec(self, seed: int, requests: int, **extra: Any) -> ServeSpec:
        fields = dict(self.spec_fields, **extra)
        params = dict(fields.pop("params", {}), seed=seed)
        return ServeSpec(
            name=self.name, seed=POPULATION_SEED, requests=requests,
            params=params, **fields,
        )

    def setup(self, seed: int, scale: float) -> dict:
        requests = _scaled(self.requests, scale, 20)
        state = {"seed": seed, "spec": self.spec(seed, requests)}
        run_service(self.spec(seed, max(10, requests // 20)))  # warm-up
        return state

    def small(self, state: dict) -> dict:
        requests = max(10, state["spec"].requests // 10)
        return dict(state, spec=self.spec(state["seed"], requests))

    def run(self, state: dict) -> Any:
        return run_service(state["spec"])

    def check(self, state: dict, raw: Any) -> Outcome:
        spec = state["spec"]
        errors = []
        records = raw.records
        terminal = sum(1 for r in records if r["completed_ms"] is not None)
        if len(records) != spec.requests or terminal != spec.requests:
            errors.append(
                f"{terminal} of {spec.requests} requests reached a terminal "
                f"state ({len(records)} issued)"
            )
        if not raw.invariants_ok:
            errors.append("invariants_ok is false")
        if self.chaos_free:
            if raw.completed != spec.requests:
                errors.append(
                    f"{raw.completed} of {spec.requests} requests completed "
                    f"with chaos off: {raw.outcome_counts}"
                )
            if raw.violations:
                errors.append(f"{len(raw.violations)} violation(s) with chaos off")
        return Outcome(
            ops=spec.requests,
            not_completed=spec.requests - raw.completed,
            signature=raw.signature(),
            trace_signature=raw.trace_sig,
            sim_ms=_e2e_ms(records),
            violations=len(raw.violations),
            errors=errors,
        )


class ServeB4(_ServeWorkload):
    name = "serve_b4_8f"
    why = (
        "Spread-out mix (checker, engine, trace, p4 and core each 10-30 %): "
        "engine, trace, p4 and core work shows here; an O(flows) checker fix barely does."
    )
    requests = 600
    spec_fields = dict(
        topology="b4", mode="open", flows=8, arrival_rate_per_s=3.0,
        queue_depth=16, shed_policy="park", conflict_policy="serialize",
        horizon_ms=1.0e9,
    )


class ServeChinanet(_ServeWorkload):
    name = "serve_chinanet_100f"
    why = (
        "Checker-dominated: every rule_change re-walks 100 flows, so "
        "throughput-vs-flow-count work shows here and barely on serve_b4_8f."
    )
    requests = 75
    spec_fields = dict(
        topology="chinanet", mode="open", flows=100, arrival_rate_per_s=20.0,
        queue_depth=16, shed_policy="park", conflict_policy="serialize",
        horizon_ms=1.0e9,
    )


class ServeChaos(_ServeWorkload):
    name = "serve_b4_chaos_closed"
    why = (
        "Closed loop under link flaps: admission refusals, watchdog aborts, reroutes and "
        "checker disarm; the only workload where shedding recovery work shows as more failures."
    )
    requests = 380
    chaos_free = False
    spec_fields = dict(
        topology="b4", mode="closed", flows=16, clients=8, think_time_ms=20.0,
        queue_depth=8, shed_policy="reject", conflict_policy="serialize",
        params={"controller_update_timeout_ms": 500.0},
    )

    def spec(self, seed: int, requests: int) -> ServeSpec:
        # 8 clients finish ~13 requests per simulated second; the
        # horizon leaves a third of slack so every request is issued.
        seconds = max(2, requests // 10)
        edges = sorted(
            tuple(sorted((e.a, e.b))) for e in TOPOLOGIES["b4"]().edges
        )
        rng = np.random.default_rng([seed, _FLAP_STREAM])
        events = []
        for second in range(1, seconds):
            a, b = edges[int(rng.integers(len(edges)))]
            down = second * 1000.0 + float(rng.uniform(0.0, 500.0))
            events.append(
                {"time_ms": down, "kind": "link_down", "node_a": a, "node_b": b}
            )
            events.append(
                {"time_ms": down + 400.0, "kind": "link_up", "node_a": a, "node_b": b}
            )
        return super().spec(
            seed, requests, events=tuple(events), horizon_ms=seconds * 1000.0
        )


class ServeCausal(_ServeWorkload):
    name = "serve_b4_8f_causal"
    why = (
        "serve_b4_8f's spec with metrics and causal tracing on: prices the instrumentation "
        "and catches a hook-site change that speeds obs-off at obs-on's expense."
    )
    requests = 380
    spec_fields = ServeB4.spec_fields

    def setup(self, seed: int, scale: float) -> dict:
        state = super().setup(seed, scale)
        run_service(self.spec(seed, 10), obs=make_obs(causal=True))
        reference = run_service(state["spec"])
        state["off_signature"] = reference.signature()
        state["off_trace_signature"] = reference.trace_sig
        return state

    def run(self, state: dict) -> Any:
        return run_service(state["spec"], obs=make_obs(causal=True))

    def check(self, state: dict, raw: Any) -> Outcome:
        outcome = super().check(state, raw)
        if "off_signature" in state and (
            outcome.signature != state["off_signature"]
            or outcome.trace_signature != state["off_trace_signature"]
        ):
            outcome.errors.append("obs-on signature differs from the obs-off run")
        return outcome

    def small(self, state: dict) -> dict:
        small = super().small(state)
        small.pop("off_signature")
        return small

    def trace_extras(self, state: dict) -> dict[str, float]:
        """Price of the instrumentation: obs-on over obs-off CPU, from
        three alternating pairs of the same spec."""
        on, off = [], []
        for _ in range(3):
            for series, obs in ((off, None), (on, make_obs(causal=True))):
                started = time.process_time()
                run_service(state["spec"], obs=obs)
                series.append(time.process_time() - started)
        return {
            "obs.on_over_off_cpu_ratio": sorted(on)[1] / sorted(off)[1],
        }


# -- fig7 --------------------------------------------------------------------


class Fig7Multiflow(Workload):
    name = "fig7_multiflow"
    why = (
        "The paper's headline experiment as many short simulations: scenario and network "
        "set-up outweigh the event loop; the only workload through baselines, harness and sweep."
    )
    op = "shard"
    has_sim_p95 = False
    systems = ("p4update", "ezsegway", "central")
    #: Largest first: the biggest deployment is then built on the heap
    #: the harness just collected, which narrows the two peak-RSS levels
    #: this workload lands on (GC timing) from 85/101 MB to 83/92.5 MB.
    topologies = ("chinanet", "attmpls", "internet2", "b4")

    def _spec(self, seed: int, topologies: tuple, systems: tuple) -> Any:
        return load_sweep_spec({
            "name": self.name,
            "kind": "experiment",
            "seed": POPULATION_SEED,
            "systems": list(systems),
            "topologies": list(topologies),
            "scenarios": ["multi"],
            "seeds": 1,
            "params": {"seed": seed},
        })

    def setup(self, seed: int, scale: float) -> dict:
        topologies = self.topologies if scale >= 0.5 else ("b4",)
        self.run({"spec": self._spec(seed, ("b4",), ("p4update",))})  # warm-up
        return {"seed": seed, "spec": self._spec(seed, topologies, self.systems)}

    def small(self, state: dict) -> dict:
        return dict(state, spec=self._spec(state["seed"], ("b4",), self.systems))

    def _sweep(self, spec: Any, cache: str) -> Any:
        fleet = run_sweep(spec, workers=1, cache_dir=cache)
        results = build_sweep_results(
            spec, fleet.shard_docs, fleet.failures, fleet.shards_total
        )
        return fleet, results

    def run(self, state: dict) -> Any:
        cache = tempfile.mkdtemp(prefix="perf_sweep_")
        try:
            return self._sweep(state["spec"], cache)
        finally:
            shutil.rmtree(cache, ignore_errors=True)

    def check(self, state: dict, raw: Any) -> Outcome:
        fleet, results = raw
        errors = []
        bad = 0
        violations = 0
        p4_times = []
        for doc in results["shards"]:
            shard = doc["results"]
            violations += int(shard.get("violations", 0))
            if not (shard.get("completed") and shard.get("consistency_ok")):
                bad += 1
                errors.append(f"shard {doc['shard_id']} {doc.get('key')}: {shard}")
            elif doc["key"]["system"] == "p4update":
                p4_times.append(float(shard["total_update_time_ms"]))
        bad += len(fleet.failures)
        if not fleet.ok:
            errors.append(f"fleet not ok: {len(fleet.failures)} failure(s)")
        return Outcome(
            ops=fleet.shards_total,
            not_completed=bad,
            signature=results["signature"],
            sim_ms=p4_times,
            violations=violations,
            errors=errors[:5],
        )

    def trace_extras(self, state: dict) -> dict[str, float]:
        """Warm-cache resume: every shard answered from disk."""
        cache = tempfile.mkdtemp(prefix="perf_sweep_")
        try:
            self._sweep(state["spec"], cache)
            started = time.perf_counter()
            fleet = run_sweep(
                state["spec"], workers=1, cache_dir=cache, resume=True
            )
            elapsed = time.perf_counter() - started
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        if fleet.cached_shards != fleet.shards_total:
            raise RuntimeError("warm resume re-ran shards")
        return {"sweep.warm_resume_ms": elapsed * 1000.0}


# -- fig8 --------------------------------------------------------------------


class Fig8Prep(Workload):
    name = "fig8_prep"
    why = (
        "The paper's Fig. 8 host-time metric: controller preparation only, bypassing sim, trace, "
        "checker and p4, so work there must not move it and core.controller work shows only here."
    )
    op = "prepared update"
    has_sim_p50 = False
    has_sim_p95 = False
    has_violations = False
    updates = 5000
    topologies = ("b4", "chinanet")

    def setup(self, seed: int, scale: float) -> dict:
        updates = _scaled(self.updates, scale, 50)
        state = {"seed": seed, "updates": updates}
        ratios = {}
        for name in self.topologies:
            topo, scenario, deployment = prep_workload(
                TOPOLOGIES[name], seed=POPULATION_SEED
            )
            p4, ez, ez_congestion = count_operations(
                topo, deployment, scenario.flows, updates=10
            )
            ratios[name] = (p4 / ez, p4 / ez_congestion)
        state["ratios"] = ratios
        return state

    def small(self, state: dict) -> dict:
        return dict(state, updates=max(50, state["updates"] // 10))

    def run(self, state: dict) -> Any:
        prepared = {}
        for name in self.topologies:
            _, scenario, deployment = prep_workload(
                TOPOLOGIES[name], seed=POPULATION_SEED
            )
            flows = scenario.flows
            rng = np.random.default_rng([state["seed"], _ORDER_STREAM])
            order = rng.integers(len(flows), size=state["updates"]).tolist()
            prepare = deployment.controller.prepare_update
            prepared[name] = [
                prepare(
                    flows[i].flow_id, list(flows[i].new_path), UpdateType.DUAL,
                    congestion_aware=False,
                )
                for i in order
            ]
        return prepared

    def check(self, state: dict, raw: Any) -> Outcome:
        errors = []
        digest = hashlib.sha256()
        ops = 0
        for name in self.topologies:
            for update in raw[name]:
                ops += 1
                digest.update(
                    f"{name}|{update.flow_id}|{update.version}|"
                    f"{[(u.target, u.new_distance, u.egress_port) for u in update.uims]}\n"
                    .encode("utf-8")
                )
            ratio_a = state["ratios"][name][0]
            if not ratio_a < 1.0:
                errors.append(
                    f"{name}: P4Update/ez-Segway op-count ratio {ratio_a:.3f} >= 1"
                )
        if ops != state["updates"] * len(self.topologies):
            errors.append(f"prepared {ops} updates")
        ratios = state["ratios"]
        return Outcome(
            ops=ops,
            not_completed=0,
            signature=digest.hexdigest(),
            errors=errors,
            extras={
                "fig8.ratio_a": float(np.mean([r[0] for r in ratios.values()])),
                "fig8.ratio_b": float(np.mean([r[1] for r in ratios.values()])),
            },
        )

    def trace_extras(self, state: dict) -> dict[str, float]:
        """ez-Segway's two preparations, timed per call (paper Fig. 8's
        other bars; accuracy context, not gated)."""
        from repro.baselines.ezsegway import (
            congestion_dependency_graph,
            prepare_ez_update,
        )

        prepare_s = congestion_s = 0.0
        prepares = graphs = 0
        for name in self.topologies:
            topo, scenario, _ = prep_workload(TOPOLOGIES[name], seed=POPULATION_SEED)
            flows = scenario.flows
            capacities = {frozenset((e.a, e.b)): e.capacity for e in topo.edges}
            started = time.perf_counter()
            for i in range(200):
                flow = flows[i % len(flows)]
                prepare_ez_update(
                    flow, list(flow.old_path), list(flow.new_path), update_id=i + 1
                )
            prepare_s += time.perf_counter() - started
            prepares += 200
            started = time.perf_counter()
            for _ in range(5):
                congestion_dependency_graph(flows, capacities)
            congestion_s += time.perf_counter() - started
            graphs += 5
        return {
            "baselines.ez_prepare_us": prepare_s / prepares * 1e6,
            "baselines.ez_congestion_us": congestion_s / graphs * 1e6,
        }


# -- ops ---------------------------------------------------------------------


class OpsDrainCheckpoint(Workload):
    name = "ops_drain_ckpt"
    why = (
        "Kill/resume drill of an ops session: pickle + sha256 of the session graph dominate, so "
        "trace retention size and ops.checkpoint cost show here and nowhere else."
    )
    op = "request"
    requests = 120
    #: Derived from examples/ops_drain.json: 16 flows at 20 req/s and two
    #: drain -> undrain -> migrate -> rebalance cycles.  Sixteen
    #: checkpoints per session (the example writes ten per 60 requests)
    #: keep the workload write-dominated; the drill kills the first run
    #: at the middle one.
    checkpoints = 16
    cycle = (
        (0.10, {"op": "drain_switch", "switch": "council-ia"}),
        (0.25, {"op": "undrain_switch", "switch": "council-ia"}),
        (0.30, {"op": "migrate_tenant", "tenant": 1}),
        (0.40, {"op": "rebalance", "max_moves": 4}),
    )

    def session(self, seed: int, requests: int,
                checkpoints: Optional[int] = None) -> dict:
        checkpoints = checkpoints or self.checkpoints
        horizon = max(4000.0, requests / 20.0 * 1000.0 + 2000.0)
        timeline = [
            dict(entry, at_ms=round((offset + shift) * horizon, 1))
            for shift in (0.0, 0.5)
            for offset, entry in self.cycle
        ]
        return {
            "name": self.name,
            "serve": {
                "name": "ops-bg", "topology": "b4", "seed": POPULATION_SEED,
                "flows": 16, "requests": requests, "mode": "open",
                "arrival_rate_per_s": 20.0, "horizon_ms": horizon,
                "params": {"controller_update_timeout_ms": 500.0, "seed": seed},
            },
            "tenants": 4,
            "checkpoint_every_ms": horizon / checkpoints,
            "timeline": timeline,
        }

    def setup(self, seed: int, scale: float) -> dict:
        state = {"seed": seed, "requests": _scaled(self.requests, scale, 20)}
        self._drill(self.session(seed, 20, checkpoints=2), 2)  # warm-up
        work = tempfile.mkdtemp(prefix="perf_ops_")
        try:
            spec_path = self._write(self.session(seed, state["requests"]), work)
            self._ops("run", spec_path, "--manifest", "--out-dir", work)
            state["reference"] = self._results(work)["signature"]
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return state

    def small(self, state: dict) -> dict:
        small = dict(state, requests=max(20, state["requests"] // 10))
        small.pop("reference")
        return small

    def run(self, state: dict) -> Any:
        return self._drill(
            self.session(state["seed"], state["requests"]), self.checkpoints
        )

    @staticmethod
    def _write(session: dict, work: str) -> str:
        path = os.path.join(work, "session.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(session, handle)
        return path

    @staticmethod
    def _ops(*argv: str) -> None:
        """One ``repro ops ...`` call through the CLI entry point, quietly."""
        with contextlib.redirect_stdout(io.StringIO()) as captured:
            code = repro_cli.main(["ops", *argv])
        if code != 0:
            raise RuntimeError(
                f"repro ops {' '.join(argv)} exited {code}: "
                f"{captured.getvalue()[-400:]}"
            )

    def _results(self, out_dir: str) -> dict:
        manifest = os.path.join(out_dir, f"BENCH_ops_{self.name}.json")
        with open(manifest, encoding="utf-8") as handle:
            return json.load(handle)["results"]

    def _drill(self, session: dict, checkpoints: int) -> dict:
        """Checkpoint run killed at the middle checkpoint, then resumed."""
        work = tempfile.mkdtemp(prefix="perf_ops_")
        try:
            ckpt = os.path.join(work, "ckpt")
            self._ops(
                "checkpoint", self._write(session, work), "--dir", ckpt,
                "--stop-after", str(checkpoints // 2),
            )
            self._ops("resume", "--dir", ckpt, "--manifest", "--out-dir", work)
            results = self._results(work)
            results["checkpoint_bytes"] = [
                os.path.getsize(os.path.join(ckpt, name))
                for name in sorted(os.listdir(ckpt))
                if name.endswith(".pkl")
            ]
            return results
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def check(self, state: dict, raw: Any) -> Outcome:
        errors = []
        requests = state["requests"]
        records = raw.get("records", [])
        if raw.get("requests") != requests:
            errors.append(f"{raw.get('requests')} of {requests} requests issued")
        if "reference" in state and raw.get("signature") != state["reference"]:
            errors.append("resumed run's signature differs from the uninterrupted run")
        if not raw.get("invariants_ok"):
            errors.append("invariants_ok is false")
        if not raw.get("ops_summary", {}).get("drains_clean"):
            errors.append("a drain left transit flows behind")
        sizes = raw.get("checkpoint_bytes", [])
        return Outcome(
            ops=requests,
            # The session keeps serve's default ``merge`` policy: a
            # request superseded by a newer one of its flow is served.
            not_completed=requests - sum(
                raw.get("outcomes", {}).get(k, 0) for k in ("completed", "merged")
            ),
            signature=str(raw.get("signature")),
            trace_signature=str(raw.get("trace_signature")),
            sim_ms=_e2e_ms(records),
            violations=len(raw.get("violations", [])),
            errors=errors,
            extras={
                "ops.checkpoint_mb": (
                    sum(sizes) / len(sizes) / 1e6 if sizes else 0.0
                ),
            },
        )


WORKLOADS: tuple[Workload, ...] = (
    ServeB4(),
    ServeChinanet(),
    ServeChaos(),
    ServeCausal(),
    Fig7Multiflow(),
    Fig8Prep(),
    OpsDrainCheckpoint(),
)

BY_NAME = {w.name: w for w in WORKLOADS}
