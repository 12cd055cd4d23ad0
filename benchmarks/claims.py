"""The paper's claims as one table: every verdict of EXPERIMENTS.md is a
row here, judged from one run of its figure.

A row names the paper's value, the metric it reads from a figure's
result, and two bands taken from the paper's claim (not fitted to our
numbers): a value inside ``reproduced`` reproduces the claim, one inside
``partial`` keeps its direction only, anything else is a ``deviation``.
``expect`` is the verdict EXPERIMENTS.md reports, so a verdict that
flips fails ``pytest benchmarks/test_claims.py``; a moved byte does not.

Comparisons against ez-Segway follow the paper's "DL −18.5 % vs ez"
style: ``(system − ez) / ez`` in percent.  Where the paper states a
margin, ``reproduced`` asks for at least half of it (rounded to 5
points) and ``partial`` for the right sign.

Fig. 7 and Fig. 8 are read from the ``experiment`` / ``prep`` sweep
aggregates (the code paths of ``repro fig7`` / ``repro fig8``); Fig. 2
and Fig. 4 from ``run_fig2`` / ``run_fig4``; the compete and ops rows
from the runs ``tests/harness/pinned_cli.json`` pins.  The runners
below are the figures no sweep expresses.

    python benchmarks/claims.py          # print every row and its verdict
"""

from __future__ import annotations

import math
import pathlib
import tempfile
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional

import numpy as np

from repro.algos.registry import build_system, system_names
from repro.core.messages import UpdateType
from repro.harness.analysis import watch_messages
from repro.harness.experiment import RuleChanges, run_experiment
from repro.harness.fig_experiments import fig7_sweep_spec, run_fig2, run_fig4
from repro.harness.prep import FIG8_TOPOLOGIES, fig8_sweep_spec
from repro.harness.probes import ProbeSource
from repro.harness.scenarios import FIG7_SCENARIOS, UpdateScenario
from repro.params import DelayDistribution, SimParams
from repro.sim.faults import FaultModel
from repro.sweep.executor import run_sweep
from repro.sweep.merge import build_sweep_results
from repro.topo.graph import Topology
from repro.topo.synthetic import (
    FIG1_NEW_PATH,
    FIG1_OLD_PATH,
    fig1_topology,
    ring_topology,
)
from repro.traffic.flows import Flow

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIG1_OLD, FIG1_NEW = list(FIG1_OLD_PATH), list(FIG1_NEW_PATH)
Band = tuple[float, float]


def le(x: float) -> Band:
    return (-math.inf, x)


def ge(x: float) -> Band:
    return (x, math.inf)


def eq(x: float) -> Band:
    return (x, x)


@dataclass(frozen=True)
class Claim:
    id: str
    paper: str
    figure: str
    metric: Callable[[Any], float]
    reproduced: Band
    partial: Optional[Band]
    expect: str

    def verdict(self, value: float) -> str:
        for name, band in (("reproduced", self.reproduced), ("partial", self.partial)):
            if band is not None and band[0] <= value <= band[1]:
                return name
        return "deviation"


def vs(a: str, b: str) -> Callable[[dict], float]:
    """Percent by which ``a``'s mean differs from ``b``'s."""
    return lambda r: (r[a] - r[b]) / r[b] * 100.0


def _sweep(spec: Any) -> dict:
    with tempfile.TemporaryDirectory() as cache:
        run = run_sweep(spec, workers=1, cache_dir=cache)
    if not run.ok:
        raise RuntimeError(f"{spec.name}: shard failures {run.failures}")
    return build_sweep_results(spec, run.shard_docs, run.failures, run.shards_total)["aggregates"]


def _flow(dep: Any, src: str = "v0", dst: str = "v7", old: Optional[list] = None) -> Flow:
    flow = Flow.between(src, dst, size=1.0, old_path=old or FIG1_OLD)
    dep.install_flow(flow)
    return flow


# -- figures read from the harness and the sweeps ----------------------------


def fig2() -> dict:
    out = {}
    for system in ("ezsegway", "p4update"):
        r = run_fig2(system, params=SimParams(seed=0))
        out[system] = {
            "looped": len(r.duplicates_at_v1),
            "ttl_losses": r.ttl_losses,
            "delivered": len({o.seq for o in r.delivered_at_v4}) / r.probes_sent,
        }
    return out


def fig4(runs: int = 30) -> dict:
    times: dict[str, list] = {"p4update": [], "ezsegway": []}
    for seed in range(runs):
        params = SimParams(seed=seed).with_dionysus_install_delay()
        for system, samples in times.items():
            result = run_fig4(system, params=params)
            assert result.completed and result.consistency_violations == 0, (system, seed)
            samples.append(result.u3_completion_ms)
    return {system: float(np.mean(samples)) for system, samples in times.items()}


def fig7() -> dict:
    """Cell -> system -> mean paired update time: 30 single-flow or 10
    multi-flow runs per cell, the paper's budget."""
    out = {}
    for cell, (kind, _) in sorted(FIG7_SCENARIOS.items()):
        cells = _sweep(fig7_sweep_spec(cell, runs=30 if kind == "single" else 10))["cells"]
        out[cell] = {key.rsplit("/", 1)[1]: row["mean_update_ms"] for key, row in cells.items()}
    return out


def fig8() -> dict:
    """Deterministic operation counts of 50 preparations per topology."""
    return _sweep(fig8_sweep_spec())["topologies"]


def compete() -> dict:
    from repro.serve.spec import load_serve_spec_file
    from repro.serve.sweep_kind import serve_sweep

    spec = load_serve_spec_file(str(ROOT / "examples" / "compete_smoke.json"))
    return _sweep(serve_sweep(spec, 1, kind="compete", strategies=system_names()))["scoreboard"]


def ops() -> Any:
    from repro.ops.session import run_session
    from repro.ops.spec import load_session_spec_file

    return run_session(load_session_spec_file(str(ROOT / "examples" / "ops_drain.json")))


# -- figures no sweep expresses ------------------------------------------------

#: Fig. 3: three parallel 3-hop rails, so each queued update can target
#: a configuration different from its predecessor.
RAILS = [["s", f"x{i}", f"y{i}", "t"] for i in range(3)]


def rail_topology() -> Topology:
    topo = Topology("rails")
    for node in ("s", "t"):
        topo.add_node(node)
    for _, x, y, _ in RAILS:
        topo.add_node(x)
        topo.add_node(y)
        for a, b in (("s", x), (x, y), (y, "t")):
            topo.add_edge(a, b, latency_ms=2.0)
    topo.set_controller("s")
    return topo


def _rails_time(system: str, seed: int, depth: int) -> float:
    """Time to the last of ``depth`` back-to-back updates (rails 1, 2, 1, ...)."""
    dep = build_system(system, rail_topology(), params=SimParams(seed=seed).with_dionysus_install_delay())
    changes = RuleChanges(dep.network.trace)
    flow = _flow(dep, "s", "t", RAILS[0])
    targets = [RAILS[1 + i % 2] for i in range(depth)]
    for target in targets:
        dep.controller.update_flow(flow.flow_id, list(target), dep.update_type)
    dep.run()
    established = changes.establishment_time(flow.flow_id, targets[-1], RAILS[0])
    assert established != math.inf, (system, seed, depth)
    return established


def fig3(runs: int = 6) -> dict:
    return {
        depth: {
            system: float(np.mean([_rails_time(system, seed, depth) for seed in range(runs)]))
            for system in ("p4update-sl", "ezsegway")
        }
        for depth in (1, 2, 4, 8)
    }


def _forward_detour(detour: int) -> UpdateScenario:
    """A ring flow rerouted forward over a ``detour``-hop arc."""
    n = detour + 4
    topo = ring_topology(n, latency_ms=5.0)
    topo.set_controller("n0")
    flow = Flow.between(
        "n0", f"n{n - 2}", size=1.0,
        old_path=["n0", f"n{n - 1}", f"n{n - 2}"], new_path=[f"n{i}" for i in range(n - 1)],
    )
    return UpdateScenario(topo, [flow], f"forward detour {detour}")


def _fig1_scenario() -> UpdateScenario:
    flow = Flow.between("v0", "v7", size=1.0, old_path=FIG1_OLD, new_path=FIG1_NEW)
    return UpdateScenario(fig1_topology(), [flow], "fig1")


def _mean_time(system: str, build: Callable[[], UpdateScenario], params: SimParams, runs: int) -> float:
    times = []
    for run in range(runs):
        result = run_experiment(system, build(), params=params.with_seed(params.seed * 10_000 + run))
        assert result.completed and result.consistency_ok, (system, run)
        times.append(result.total_update_time_ms)
    return float(np.mean(times))


def sl_vs_dl(runs: int = 15) -> dict:
    """§7.5: SL, DL and the automatic pick on forward-only detours and
    on the backward-segmented Fig. 1 update."""
    params = SimParams(seed=0).with_dionysus_install_delay()
    scenarios = {f"detour{d}": partial(_forward_detour, d) for d in (2, 4, 8)}
    scenarios["fig1"] = _fig1_scenario
    return {
        label: {s: _mean_time(s, build, params, runs) for s in ("p4update-sl", "p4update-dl", "p4update")}
        for label, build in scenarios.items()
    }


def chain_scenario(k: int = 5) -> UpdateScenario:
    """Flow i moves from rail i to rail i+1, which holds flow i+1 until
    it moves on: a k-deep capacity dependency chain."""
    topo = Topology("chain")
    for node in ("s", "t"):
        topo.add_node(node)
    for i in range(k + 1):
        topo.add_node(f"m{i}")
        topo.add_edge("s", f"m{i}", latency_ms=1.0, capacity=10.0)
        topo.add_edge(f"m{i}", "t", latency_ms=1.0, capacity=10.0)
    topo.set_controller("s")
    flows = [
        Flow(flow_id=1000 + i, src="s", dst="t", size=7.0,
             old_path=["s", f"m{i}", "t"], new_path=["s", f"m{i + 1}", "t"])
        for i in range(k)
    ]
    return UpdateScenario(topo, flows, f"dependency chain depth {k}")


def scheduler(runs: int = 10) -> dict:
    return {s: _mean_time(s, chain_scenario, SimParams(seed=0), runs) for s in ("p4update-sl", "ezsegway")}


def _probe_run(seed: int, mode: str) -> tuple[int, int, int]:
    """(sent, delivered, delivered on a mixed old/new path) for one Fig. 1
    update under 500 pps probes; every mixed path must be loop-free."""
    const = DelayDistribution.constant
    params = SimParams(
        seed=seed, pipeline_delay=const(0.1), rule_install_delay=const(15.0),
        controller_service=const(0.3), controller_background_util=0.0,
        unm_generation_delay=const(0.5),
    )
    dep = build_system("p4update", fig1_topology(latency_ms=2.0), params=params)
    flow = _flow(dep)
    paths: list[tuple] = []
    egress = dep.switches["v7"]
    original = egress.note_probe_delivered

    def record(flow_id: int, packet: Any) -> None:
        paths.append(tuple(packet.meta.get("hops", [])))
        original(flow_id, packet)

    egress.note_probe_delivered = record
    source = ProbeSource(dep, flow.flow_id, "v0", rate_pps=500.0)
    source.start(at=1.0, stop_at=400.0)
    if mode == "2pc":
        update = partial(dep.controller.two_phase_update, flow.flow_id, FIG1_NEW)
    else:
        layer = UpdateType.SINGLE if mode == "sl" else UpdateType.DUAL
        update = partial(dep.controller.update_flow, flow.flow_id, FIG1_NEW, layer)
    dep.network.engine.schedule(30.0, update)
    dep.run(until=1200.0)
    assert dep.controller.update_complete(flow.flow_id), (mode, seed)
    mixed = [p for p in paths if p not in (tuple(FIG1_OLD), tuple(FIG1_NEW))]
    assert all(len(set(p)) == len(p) and p[-1] == "v7" for p in mixed), mixed
    return source.sent, len(paths), len(mixed)


def two_phase(runs: int = 8) -> dict:
    return {
        mode: [sum(c) for c in zip(*(_probe_run(seed, mode) for seed in range(runs)))]
        for mode in ("sl", "2pc")
    }


def _lossy_run(seed: int, drop: float, recovery: bool) -> tuple[bool, bool]:
    """(completed, consistent) of the Fig. 1 DL update with ``drop`` UNM loss."""
    params = SimParams(seed=seed, controller_update_timeout_ms=500.0 if recovery else 0.0)
    dep = build_system("p4update", fig1_topology(), params=params)
    if drop > 0:
        dep.network.fault_model = FaultModel(
            rng=np.random.default_rng(seed ^ 0xBEEF), drop_prob=drop,
            selector=lambda m: hasattr(m, "has_valid") and m.has_valid("unm"),
        )
    if recovery:
        for switch in dep.switches.values():
            switch.unm_timeout_ms = 300.0
    flow = _flow(dep)
    dep.controller.update_flow(flow.flow_id, FIG1_NEW, UpdateType.DUAL)
    dep.run(until=30_000.0)
    return dep.controller.update_complete(flow.flow_id), dep.checker.ok


def unm_loss(runs: int = 10) -> dict:
    """(drop, recovery) -> (completions out of ``runs``, all consistent)."""
    out = {}
    for drop in (0.0, 0.1, 0.2, 0.3):
        for recovery in (False, True):
            done, ok = zip(*(_lossy_run(seed, drop, recovery) for seed in range(runs)))
            out[drop, recovery] = (sum(done), all(ok))
    return out


def messages() -> dict:
    """Messages sent per system for the Fig. 1 update (§11, §10)."""
    out = {}
    for label, system, compact in (
        ("p4update-sl", "p4update-sl", False), ("compact", "p4update-dl", True),
        ("central", "central", False),
    ):
        dep = build_system(system, fig1_topology(), params=SimParams(seed=0))
        out[label] = watch_messages(dep.network.trace)
        flow = _flow(dep)
        update = dep.controller.compact_update if compact else dep.controller.update_flow
        update(flow.flow_id, FIG1_NEW, dep.update_type)
        dep.run()
        assert dep.controller.update_complete(flow.flow_id), label
    return out


FIGURES: dict[str, Callable[[], Any]] = {
    "fig2": fig2, "fig3": fig3, "fig4": fig4, "fig7": fig7, "fig8": fig8,
    "sl_vs_dl": sl_vs_dl, "scheduler": scheduler, "two_phase": two_phase,
    "unm_loss": unm_loss, "messages": messages, "compete": compete, "ops": ops,
}


# -- the table -----------------------------------------------------------------


def _fig7(cell: str, a: str, b: str) -> Callable[[dict], float]:
    return lambda r: vs(a, b)(r[cell])


def _best_vs_central(r: dict) -> float:
    """Worst cell: best P4Update mode against Central, in percent."""
    return max(
        (min(c["p4update-sl"], c["p4update-dl"]) - c["central"]) / c["central"] * 100 for c in r.values()
    )


_FIG8_PAPER_A = {"b4": "0.69", "internet2": "0.73", "attmpls": "0.68", "chinanet": "0.69"}
_FIG8_PAPER_B = {"b4": "≈ 50×", "internet2": "≈ 100×", "attmpls": "≈ 250×", "chinanet": "≈ 500×"}
_SL_DL_MULTI = "SL −27…−39 % vs DL"

CLAIMS: list[Claim] = [
    Claim("2.ez_loops", "ez-Segway loops packets at v1", "fig2",
          lambda r: r["ezsegway"]["looped"], ge(1), None, "reproduced"),
    Claim("2.ez_ttl_losses", "ez-Segway loses packets to TTL expiry", "fig2",
          lambda r: r["ezsegway"]["ttl_losses"], ge(1), None, "reproduced"),
    Claim("2.p4_exactly_once", "P4Update: every packet once at v1", "fig2",
          lambda r: r["p4update"]["looped"], eq(0), None, "reproduced"),
    Claim("2.p4_delivered", "P4Update delivers every packet at v4", "fig2",
          lambda r: r["p4update"]["delivered"], eq(1.0), None, "reproduced"),
    Claim("3.p4_flat", "P4Update jumps to the newest update: flat in k", "fig3",
          lambda r: r[8]["p4update-sl"] / r[1]["p4update-sl"], le(1.5), le(2.0), "reproduced"),
    Claim("3.ez_grows", "ez-Segway executes every queued update: ≈ k×", "fig3",
          lambda r: r[8]["ezsegway"] / r[1]["ezsegway"], ge(4.0), ge(2.0), "reproduced"),
    Claim("3.gap_k8", "the gap widens with k (8 queued: ≈ 8×)", "fig3",
          lambda r: r[8]["ezsegway"] / r[8]["p4update-sl"], ge(4.0), ge(2.0), "reproduced"),
    Claim("4.speedup", "≈ 4× faster U3 completion", "fig4",
          lambda r: r["ezsegway"] / r["p4update"], (3.0, 5.0), ge(2.0), "partial"),
    Claim("7a.dl_vs_ez", "DL −18.5 % vs ez", "fig7",
          _fig7("a", "p4update-dl", "ezsegway"), le(-10), le(0), "partial"),
    Claim("7a.sl_vs_dl", "SL +31.5 % vs DL", "fig7",
          _fig7("a", "p4update-sl", "p4update-dl"), ge(15), ge(0), "reproduced"),
    Claim("7c.dl_vs_ez", "DL −40.9 % vs ez", "fig7",
          _fig7("c", "p4update-dl", "ezsegway"), le(-20), le(0), "partial"),
    Claim("7e.dl_vs_ez", "DL −9.3 % vs ez", "fig7",
          _fig7("e", "p4update-dl", "ezsegway"), le(-5), le(0), "reproduced"),
    Claim("7b.sl_vs_ez", "SL −28.6 % vs ez", "fig7",
          _fig7("b", "p4update-sl", "ezsegway"), le(-15), le(0), "reproduced"),
    Claim("7d.sl_vs_ez", "SL −39.1 % vs ez", "fig7",
          _fig7("d", "p4update-sl", "ezsegway"), le(-20), le(0), "deviation"),
    Claim("7f.sl_vs_ez", "SL −31.4 % vs ez", "fig7",
          _fig7("f", "p4update-sl", "ezsegway"), le(-15), le(0), "reproduced"),
    Claim("7b.sl_vs_dl", _SL_DL_MULTI, "fig7",
          _fig7("b", "p4update-sl", "p4update-dl"), le(-15), le(0), "deviation"),
    Claim("7d.sl_vs_dl", _SL_DL_MULTI, "fig7",
          _fig7("d", "p4update-sl", "p4update-dl"), le(-15), le(0), "deviation"),
    Claim("7f.sl_vs_dl", _SL_DL_MULTI, "fig7",
          _fig7("f", "p4update-sl", "p4update-dl"), le(-15), le(0), "deviation"),
    Claim("7.central_slowest", "Central slowest in every cell", "fig7",
          _best_vs_central, le(0), None, "reproduced"),
    *(
        Claim(f"8a.{t}", _FIG8_PAPER_A[t], "fig8",
              partial(lambda t, r: r[t]["ratio_a"], t), (0.5, 0.9), le(1.0), "partial")
        for t in FIG8_TOPOLOGIES
    ),
    *(
        Claim(f"8b.{t}", _FIG8_PAPER_B[t], "fig8",
              partial(lambda t, r: 1 / r[t]["ratio_b"], t), ge(40), ge(5),
              "partial" if t == "b4" else "reproduced")
        for t in FIG8_TOPOLOGIES
    ),
    Claim("scale.p4_flat", "P4Update prep scales with topology size", "fig8",
          lambda r: max(r[t]["p4update_ops"] for t in FIG8_TOPOLOGIES)
          / min(r[t]["p4update_ops"] for t in FIG8_TOPOLOGIES), le(2.0), le(3.2), "reproduced"),
    Claim("scale.ez_cong_grows", "ez+cong cost grows ≈ 10× B4 → Chinanet", "fig8",
          lambda r: r["chinanet"]["ez_congestion_ops"] / r["b4"]["ez_congestion_ops"],
          ge(5.0), ge(2.0), "partial"),
    Claim("ablation.forward_sl", "§7.5: SL for forward-only updates", "sl_vs_dl",
          lambda r: max(vs("p4update-sl", "p4update-dl")(r[f"detour{d}"]) for d in (2, 4, 8)),
          le(5), le(15), "reproduced"),
    Claim("ablation.fig1_dl", "§7.5: DL for backward segments", "sl_vs_dl",
          lambda r: vs("p4update-dl", "p4update-sl")(r["fig1"]), le(-15), le(0), "reproduced"),
    Claim("ablation.auto_tracks_best", "§7.5 rule picks the better layer", "sl_vs_dl",
          lambda r: max(c["p4update"] / min(c["p4update-sl"], c["p4update-dl"]) for c in r.values()),
          le(1.10), None, "reproduced"),
    Claim("ablation.scheduler", "§7.4 dynamic priorities beat static ranks", "scheduler",
          vs("p4update-sl", "ezsegway"), le(-10), le(0), "reproduced"),
    Claim("2pc.no_mixed_paths", "§11 2PC: per-packet consistency", "two_phase",
          lambda r: r["2pc"][2], eq(0), None, "reproduced"),
    Claim("2pc.sl_mixed_paths", "plain SL: relative consistency only", "two_phase",
          lambda r: r["sl"][2], ge(1), None, "reproduced"),
    Claim("loss.consistent", "§5: consistency under any UNM loss", "unm_loss",
          lambda r: all(ok for _, ok in r.values()), eq(1), None, "reproduced"),
    Claim("loss.recovers_10pct", "§11 watchdog + re-trigger restore completion", "unm_loss",
          lambda r: r[0.1, True][0] / 10, eq(1.0), ge(0.5), "reproduced"),
    Claim("loss.gain_30pct", "§11 recovery completes more updates", "unm_loss",
          lambda r: r[0.3, True][0] - r[0.3, False][0], ge(3), ge(1), "reproduced"),
    Claim("msgs.uim_per_switch", "one UIM per new-path switch (8)", "messages",
          lambda r: r["p4update-sl"].by_type.get("UIM", 0), eq(len(FIG1_NEW)), None, "reproduced"),
    Claim("msgs.compact", "§11 compact: UIMs only to v7, v4, v2", "messages",
          lambda r: r["compact"].by_type.get("UIM", 0), eq(3), None, "reproduced"),
    Claim("msgs.central_control", "Central crosses the control channel more", "messages",
          lambda r: r["central"].control_plane / r["p4update-sl"].control_plane, ge(1.5), ge(1.0), "reproduced"),
    Claim("compete.ez_deadlocks", "static ez priorities deadlock (§7.4)", "compete",
          lambda r: r["ezsegway"]["deadlock_rate"], ge(0.01), None, "reproduced"),
    Claim("compete.p4_no_deadlock", "dynamic §7.4 scheduling: no deadlock", "compete",
          lambda r: max(r[s]["deadlock_rate"] for s in ("p4update", "p4update-sl", "p4update-dl")),
          eq(0), None, "reproduced"),
    Claim("compete.consistent", "no violations under a link flap", "compete",
          lambda r: sum(row["violations"] for row in r.values()), eq(0), None, "reproduced"),
    Claim("ops.drains_clean", "drains evacuate every flow", "ops",
          lambda r: r.ops_summary()["moves_by_outcome"].get("stranded", 0)
          + (not r.ops_summary()["drains_clean"]), eq(0), None, "reproduced"),
    Claim("ops.consistent", "no violations through drain / migrate / rebalance", "ops",
          lambda r: len(r.violations), eq(0), None, "reproduced"),
]


def evaluate(figures: dict[str, Any]) -> list[tuple[Claim, float, str]]:
    return [(c, v, c.verdict(v)) for c in CLAIMS for v in [float(c.metric(figures[c.figure]))]]


if __name__ == "__main__":
    figures = {name: run() for name, run in FIGURES.items()}
    for claim, value, verdict in evaluate(figures):
        flag = "" if verdict == claim.expect else f"  (expected {claim.expect})"
        print(f"{claim.id:28s} {value:12.4g}  {verdict:10s} paper: {claim.paper}{flag}")
