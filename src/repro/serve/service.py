"""End-to-end service runs: spec in, deterministic result out.

:func:`run_service` builds a deployment for the spec topology,
installs the flow population, wires the orchestrator, live consistency
checking and optional chaos events, then drives the request workload
to the horizon on the simulated clock.  The returned
:class:`ServiceResult` carries per-request records, SLO summaries and
a content signature; everything in :meth:`ServiceResult.to_results`
is simulated-time only, so the same spec + seed is bit-identical
regardless of host, worker count or wall-clock speed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.algos.registry import build_system
from repro.chaos.runner import schedule_topo_events
from repro.consistency.checker import LiveChecker
from repro.loading import spec_digest
from repro.obs.causal import CausalTracker, slo_summary, summarize_attribution
from repro.obs.context import NULL_OBS, ObsContext
from repro.obs.registry import NullRegistry
from repro.obs.spans import NullSpanTracker
from repro.params import SimParams
from repro.serve.model import OUTCOME_COMPLETED, OUTCOMES
from repro.serve.orchestrator import ServiceOrchestrator
from repro.serve.spec import ServeSpec
from repro.serve.workload import (
    build_flow_population,
    closed_loop_pick,
    draw_open_arrival,
    flow_cdf,
    flow_weights,
)
from repro.topo import TOPOLOGIES

#: RNG domain separators (distinct from every other stream in the repo).
_FLOW_STREAM = 0x5EF1
_ARRIVAL_STREAM = 0x5EA2


def apply_link_capacity(topo: Any, link_capacity: float) -> None:
    """Override every link's capacity in place (0 keeps defaults)."""
    if link_capacity <= 0:
        return
    for peers in topo.adj.values():
        for data in peers.values():
            data["capacity"] = float(link_capacity)


def link_capacities(topo: Any) -> dict[tuple[str, str], float]:
    """Directed capacity map for the admission gate (links are
    symmetric in every repo topology, so both directions get the
    undirected edge's capacity)."""
    capacities: dict[tuple[str, str], float] = {}
    for edge in topo.edges:
        cap = float(edge.capacity)
        capacities[(edge.a, edge.b)] = cap
        capacities[(edge.b, edge.a)] = cap
    return capacities


def build_service_deployment(
    spec: ServeSpec, obs: ObsContext = NULL_OBS, strategy: Optional[str] = None
) -> tuple[Any, list]:
    """The network a serve spec runs on: its topology (link capacity
    applied) under ``strategy`` (default: the spec's own) and the
    spec's params, with the seeded flow population installed.

    The one construction :func:`run_service`, ops sessions and the
    static interference analyzer share, so all three see the same
    deployment and the same flows for the same spec.
    """
    topo = TOPOLOGIES[spec.topology]()
    apply_link_capacity(topo, spec.link_capacity)
    params = SimParams(seed=spec.seed)
    if spec.params:
        params = dataclasses.replace(params, **dict(spec.params))
    deployment = build_system(strategy or spec.strategy, topo, params=params, obs=obs)
    deployment.set_congestion_aware(spec.congestion_aware)
    flow_rng = np.random.default_rng([spec.seed, _FLOW_STREAM])
    population = build_flow_population(
        topo, spec.flows, flow_rng, mean_size=spec.mean_flow_size
    )
    for service_flow in population:
        deployment.install_flow(service_flow.to_flow())
    return deployment, population


@dataclass
class ServiceResult:
    """Everything one service run produced (JSON-safe via to_results)."""

    spec: ServeSpec
    records: list[dict]
    violations: list[dict]
    outcome_counts: dict[str, int]
    slo: dict[str, Any]
    peak_in_flight: int
    sim_time_ms: float
    events_processed: int
    trace_sig: str
    invariants_ok: bool = True
    trace_dropped: int = 0
    # Critical-path latency attribution (spec.causal runs only):
    # deterministic per-request rows + summary, and the full causal
    # DAGs (lifted out of ``results`` by the sweep worker).
    attribution: Optional[dict] = None
    causal: Optional[list] = None
    # Admission-gate decisions (spec.static_interference != "off").
    # Omitted from results when empty so a gated-but-conflict-free run
    # stays byte-identical to a gate-off run.
    interference: list = field(default_factory=list)
    # Converged per-flow routing at the horizon (flow_id -> path) and
    # the controller's "completed" events per flow (flow_id -> count).
    # Deliberately NOT serialized: the compete fuzz oracle compares
    # them across strategies in-process.
    routes: dict = field(default_factory=dict)
    completions: dict = field(default_factory=dict)
    # Strategy-specific counters (e.g. augmentation detours).  Omitted
    # from results when empty so the default strategy's output is
    # untouched.
    strategy_stats: dict = field(default_factory=dict)

    @property
    def consistent(self) -> bool:
        return not self.violations

    @property
    def completed(self) -> int:
        return self.outcome_counts.get(OUTCOME_COMPLETED, 0)

    @property
    def makespan_ms(self) -> float:
        times = [
            r["completed_ms"]
            for r in self.records
            if r["outcome"] == OUTCOME_COMPLETED
        ]
        return max(times) if times else 0.0

    @property
    def throughput_per_s(self) -> float:
        """Committed updates per simulated second of service makespan."""
        span = self.makespan_ms
        if span <= 0:
            return 0.0
        return self.completed / (span / 1000.0)

    def signature(self) -> str:
        """SHA-256 over the deterministic payload (records + checks)."""
        return spec_digest({"records": self.records, "violations": self.violations})

    def to_results(self) -> dict[str, Any]:
        doc = self._base_results()
        doc["makespan_ms"] = self.makespan_ms
        doc["throughput_per_s"] = self.throughput_per_s
        if self.interference:
            doc["interference"] = list(self.interference)
        if self.strategy_stats:
            doc["strategy_stats"] = dict(self.strategy_stats)
        if self.attribution is not None:
            doc["attribution"] = self.attribution
        if self.causal is not None:
            # Leading underscore: the sweep worker lifts the DAGs out
            # of ``results`` (like ``_wall``) so they ride the shard
            # document without entering the aggregate signature.
            doc["_causal"] = self.causal
        return doc

    def _base_results(self) -> dict[str, Any]:
        """The keys every run of a service reports, ops sessions too."""
        return {
            "name": self.spec.name,
            "topology": self.spec.topology,
            "seed": self.spec.seed,
            "requests": len(self.records),
            "outcomes": dict(sorted(self.outcome_counts.items())),
            "completed": self.completed,
            "consistent": self.consistent,
            "violations": self.violations,
            "invariants_ok": self.invariants_ok,
            "peak_in_flight": self.peak_in_flight,
            "slo": self.slo,
            "sim_time_ms": self.sim_time_ms,
            "events_processed": self.events_processed,
            "signature": self.signature(),
            "trace_signature": self.trace_sig,
            "trace_dropped_events": self.trace_dropped,
            "records": self.records,
        }


def _serve_slo(records: list[dict]) -> dict[str, Any]:
    """Per-stage latency summaries of one run's request records."""
    completed = [r for r in records if r["outcome"] == OUTCOME_COMPLETED]
    return {
        "admission_wait_ms": slo_summary(
            [
                r["dispatched_ms"] - r["submitted_ms"]
                for r in records
                if r["dispatched_ms"] is not None
            ]
        ),
        "prepare_ms": slo_summary(
            [
                r["pushed_ms"] - r["dispatched_ms"]
                for r in records
                if r["pushed_ms"] is not None and r["dispatched_ms"] is not None
            ]
        ),
        "install_ms": slo_summary(
            [
                r["last_install_ms"] - r["pushed_ms"]
                for r in completed
                if r["last_install_ms"] is not None and r["pushed_ms"] is not None
            ]
        ),
        "verify_ms": slo_summary(
            [
                r["completed_ms"] - r["last_install_ms"]
                for r in completed
                if r["last_install_ms"] is not None
            ]
        ),
        "e2e_ms": slo_summary(
            [r["completed_ms"] - r["submitted_ms"] for r in completed]
        ),
    }


class ServiceSession:
    """One service run, from provisioning to result.

    Construction provisions everything the spec implies before its
    first arrival — deployment and flow population, live checker,
    orchestrator, scheduled topology events, arrival RNG; :meth:`wire`
    schedules the first arrivals, :meth:`run` advances to the horizon
    and :meth:`close` builds the :class:`ServiceResult`.

    The arrival rng is drawn in one fixed order, which every pinned
    signature depends on: open loop, one ``exponential`` then one
    weighted pick per arrival, the next arrival drawn right after the
    previous submit; closed loop, one pick per client submit.  A pick
    bisects ``_cdf`` (session state) with one double.
    """

    def __init__(
        self,
        spec: ServeSpec,
        obs: ObsContext = NULL_OBS,
        strategy: Optional[str] = None,
    ) -> None:
        self.spec = spec
        self.obs = obs
        self.deployment, self.population = build_service_deployment(
            spec, obs, strategy
        )
        self.engine = self.deployment.network.engine
        self.checker = LiveChecker(
            self.deployment.forwarding_state, self.deployment.network.trace
        )
        self.orchestrator = ServiceOrchestrator(
            spec, self.deployment, self.population, obs=obs,
            capacities=link_capacities(self.deployment.topology),
        )
        schedule_topo_events(self.deployment, spec.topo_events())
        self.arrival_rng = np.random.default_rng([spec.seed, _ARRIVAL_STREAM])
        self._cdf = flow_cdf(flow_weights(self.population))
        self._issued = 0

    def wire(self) -> None:
        """Schedule the first arrivals.  Called once on a fresh session,
        never on a restored one: its engine queue already holds them."""
        if self.spec.mode == "open":
            self._next_arrival()
        else:
            self.orchestrator.on_terminal = self._client_on_terminal
            for _ in range(min(self.spec.clients, self.spec.requests)):
                self._client_submit()

    def _next_arrival(self) -> None:
        if self._issued >= self.spec.requests:
            return
        gap_ms, index = draw_open_arrival(
            self.arrival_rng, self.spec.arrival_rate_per_s, self._cdf
        )
        self.engine.schedule(gap_ms, self._submit_open, index)

    def _submit_open(self, index: int) -> None:
        self.orchestrator.submit(self.population[index].flow_id)
        self._issued += 1
        self._next_arrival()

    def _client_submit(self) -> None:
        if self._issued >= self.spec.requests:
            return
        self._issued += 1
        index = closed_loop_pick(self.arrival_rng, self._cdf)
        self.orchestrator.submit(self.population[index].flow_id)

    def _client_on_terminal(self, _request: Any) -> None:
        if self._issued < self.spec.requests:
            self.engine.schedule(self.spec.think_time_ms, self._client_submit)

    def run(self) -> None:
        """Advance to the spec's horizon (fresh or restored)."""
        self.deployment.run(until=self.spec.horizon_ms)

    def close(self) -> ServiceResult:
        """Horizon reached: close the books and build the result."""
        self.orchestrator.on_terminal = None
        self.orchestrator.finalize()
        records = sorted(
            (r.to_record() for r in self.orchestrator.requests),
            key=lambda r: r["request_id"],
        )
        outcome_counts: dict[str, int] = {}
        for record in records:
            outcome = record["outcome"]
            outcome_counts[outcome] = outcome_counts.get(outcome, 0) + 1
        # finish() raising on double-terminal is the primary guard; this
        # re-checks the emitted records themselves.
        invariants_ok = all(
            r["outcome"] in OUTCOMES and r["completed_ms"] is not None
            for r in records
        )

        attribution = None
        causal_dags = None
        tracker = self.obs.causal if self.spec.causal else None
        if tracker is not None:
            rows = tracker.attribution_rows()
            attribution = {"rows": rows, "summary": summarize_attribution(rows)}
            causal_dags = tracker.dags()

        controller = self.deployment.controller
        routes = {
            flow_id: tuple(record.current_path)
            for flow_id, record in sorted(controller.flow_db.items())
        }
        stats_fn = getattr(controller, "strategy_stats", None)
        trace = self.deployment.network.trace
        return ServiceResult(
            spec=self.spec,
            records=records,
            violations=[v.to_dict() for v in self.checker.violations],
            outcome_counts=outcome_counts,
            slo=_serve_slo(records),
            peak_in_flight=self.orchestrator.peak_in_flight,
            sim_time_ms=self.engine.now,
            events_processed=self.engine.processed_events,
            trace_sig=trace.signature(),
            invariants_ok=invariants_ok,
            trace_dropped=trace.dropped_events,
            attribution=attribution,
            causal=causal_dags,
            interference=self.orchestrator.interference_events,
            routes=routes,
            completions=dict(sorted(self.orchestrator.completions.items())),
            strategy_stats=dict(stats_fn()) if stats_fn is not None else {},
        )


def run_service(
    spec: ServeSpec, obs: Optional[ObsContext] = None
) -> ServiceResult:
    """Run one complete service workload described by ``spec``."""
    obs = obs if obs is not None else NULL_OBS
    if spec.causal:
        tracker = CausalTracker()
        if obs is NULL_OBS:
            # Causal tracing without metrics: a fresh disabled-metrics
            # context carrying only the tracker (never mutate the
            # shared NULL_OBS singleton).
            obs = ObsContext(NullRegistry(), NullSpanTracker(), causal=tracker)
        else:
            obs.causal = tracker
    session = ServiceSession(spec, obs)
    trace = session.deployment.network.trace
    if not trace.max_events:
        # Nothing reads a past row of a one-shot run: sign them as
        # they pass instead of keeping them to the close.
        trace.stream()
    session.wire()
    session.run()
    return session.close()
