"""Live operations sessions: a serve run overlaid with an ops timeline.

:func:`build_session` constructs an :class:`OpsSession` — a
:class:`~repro.serve.service.ServiceSession` (deployment, flow
population, orchestrator, consistency checker, arrival driver) plus
the operations timeline and checkpoint ticks.  A session is
deterministic from its spec, so a checkpoint is a replay point
(:mod:`repro.ops.checkpoint`): a resumed session is rebuilt from the
spec, re-run to the tick and continues **byte-identically** to an
uninterrupted run.

Operations execute as **rolling per-flow moves** through the existing
verified prepare/push pipeline (Alg. 1/2): each op moves one flow at a
time, waiting on the controller's completion callback before the next,
retrying on the simulated clock when a flow is busy with a tenant
update or chaos recovery.  A drain additionally installs its switch
into the orchestrator's avoid set so background tenant churn never
re-routes *onto* a draining switch, and re-scans for transit flows
until the switch is clean (or the stragglers are recorded — a failure
mid-drain parks or reroutes the affected flow, never strands the
drain loop itself).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.analysis.interference import footprint_from_paths
from repro.loading import spec_digest
from repro.obs.causal import slo_summary
from repro.obs.context import NULL_OBS, ObsContext
from repro.ops.spec import SessionSpec
from repro.serve.service import ServiceResult, ServiceSession, link_capacities
from repro.sim.trace import TraceEvent, trace_signature
from repro.topo.paths import NoPathError

#: Simulated delay before re-probing a busy flow (ms).
_RETRY_MS = 10.0
#: Give up moving one flow after this many busy/abort retries.
_MAX_MOVE_RETRIES = 200
#: A drain re-scans for transit flows at most this many times.
_MAX_DRAIN_ROUNDS = 8

#: Per-move terminal outcomes.
MOVE_MOVED = "moved"          # committed on the target path
MOVE_NOOP = "noop"            # already on the target path
MOVE_SKIPPED = "skipped"      # flow gone or parked before the move
MOVE_PARKED = "parked"        # recovery parked the flow mid-move
MOVE_NO_PATH = "no_path"      # avoidance disconnects the endpoints
MOVE_STRANDED = "stranded"    # retry budget exhausted
MOVE_UNFINISHED = "unfinished"  # still in flight at the horizon

#: What a checkpoint tick calls with the session and the tick's index.
Sink = Callable[["OpsSession", int], None]

#: Per-op terminal statuses.
OP_COMPLETED = "completed"
OP_UNFINISHED = "unfinished"      # horizon expired mid-op
OP_NOT_STARTED = "not_started"    # start time beyond the horizon


@dataclass
class _OpState:
    """Mutable execution state of one timeline entry."""

    index: int
    entry: dict
    status: str = "pending"
    started_ms: Optional[float] = None
    finished_ms: Optional[float] = None
    rounds: int = 0
    moves: list = field(default_factory=list)
    cursor: int = 0
    detail: dict = field(default_factory=dict)

    @property
    def active_move(self) -> Optional[dict]:
        if self.status == "running" and self.cursor < len(self.moves):
            return self.moves[self.cursor]
        return None

    def to_record(self) -> dict:
        return {
            "index": self.index,
            "op": self.entry["op"],
            "at_ms": float(self.entry["at_ms"]),
            "status": self.status,
            "started_ms": self.started_ms,
            "finished_ms": self.finished_ms,
            "rounds": self.rounds,
            "moves": [dict(m) for m in self.moves],
            "detail": dict(self.detail),
        }


@dataclass(kw_only=True)
class OpsResult(ServiceResult):
    """Everything one session produced: the :class:`ServiceResult` of
    its background churn (``spec`` is the embedded serve spec) plus the
    per-operation records."""

    session: SessionSpec
    ops: list[dict]
    path_cache: dict[str, float]
    resumed_from: Optional[int] = None

    def signature(self) -> str:
        """SHA-256 over the deterministic payload: per-request records,
        per-operation records and consistency checks."""
        return spec_digest(
            {"records": self.records, "ops": self.ops, "violations": self.violations}
        )

    def ops_summary(self) -> dict[str, Any]:
        by_status: dict[str, int] = {}
        by_outcome: dict[str, int] = {}
        drains_clean = True
        for op in self.ops:
            by_status[op["status"]] = by_status.get(op["status"], 0) + 1
            for move in op["moves"]:
                outcome = move["outcome"]
                by_outcome[outcome] = by_outcome.get(outcome, 0) + 1
            if op["op"] == "drain_switch" and op["status"] == OP_COMPLETED:
                if op["detail"].get("transit_at_end", 0) != 0:
                    drains_clean = False
        return {
            "ops_total": len(self.ops),
            "ops_by_status": dict(sorted(by_status.items())),
            "moves_total": sum(len(op["moves"]) for op in self.ops),
            "moves_by_outcome": dict(sorted(by_outcome.items())),
            "drains_clean": drains_clean,
        }

    def to_results(self) -> dict[str, Any]:
        doc = self._base_results()
        doc["name"] = self.session.name
        doc["ops"] = self.ops
        doc["ops_summary"] = self.ops_summary()
        doc["path_cache"] = self.path_cache
        return doc


class OpsSession:
    """One live session: background churn + scheduled operations.

    Built by :func:`build_session`."""

    def __init__(
        self, spec: SessionSpec, service: ServiceSession, sink: Optional[Sink] = None
    ) -> None:
        self.spec = spec
        self.service = service
        self.serve = service.spec
        self.deployment = service.deployment
        self.engine = service.engine
        self.controller = self.deployment.controller
        self.topo = self.deployment.topology
        self.orchestrator = service.orchestrator
        self.flows = service.orchestrator.flows
        self.obs = service.obs
        # Operations state.
        self.op_states = [
            _OpState(index=i, entry=dict(entry))
            for i, entry in enumerate(spec.timeline)
        ]
        self.draining: set[str] = set()
        self._move_owner: dict[int, int] = {}   # flow_id -> op index
        # Tenant partition: population order modulo the tenant count.
        self._tenant_of = {
            f.flow_id: i % spec.tenants
            for i, f in enumerate(service.population)
        }
        # Checkpointing.  ``checkpoint_index`` is the last tick that
        # ran.  ``_sink`` — a checkpoint writer or a replay's verifier,
        # given at build time — is called at each tick; only then does
        # ``_segment`` collect the rows recorded since the tick before
        # and ``segment_digest`` sign them.
        self.checkpoint_index = 0
        self.segment_digest: Optional[str] = None
        self._segment: list[TraceEvent] = []
        self.resumed_from: Optional[int] = None
        self._sink = sink
        self.controller.update_listeners.append(self._on_update_event)

    # -- construction-time scheduling --------------------------------------

    def wire(self) -> None:
        """Schedule the workload, the timeline and checkpoint ticks
        (once, at build time)."""
        interval = self.spec.checkpoint_every_ms
        ticks = interval > 0 and interval <= self.serve.horizon_ms
        if ticks and self._sink is not None:
            # Before the service is wired: a closed-loop service records
            # its first submissions there, and they open segment 1.
            self.deployment.network.trace.subscribe(self._segment.append)
        self.service.wire()
        for state in self.op_states:
            at_ms = float(state.entry["at_ms"])
            if at_ms <= self.serve.horizon_ms:
                self.engine.schedule_at(at_ms, self._start_op, state.index)
        if ticks:
            self.engine.schedule_at(interval, self._checkpoint_tick, 1)

    # -- checkpoint ticks ----------------------------------------------------

    def _checkpoint_tick(self, index: int) -> None:
        # The next tick is queued before the sink runs: a sink that
        # stops the run here (``StopSession``) leaves a session that
        # continues on the same cadence.
        next_time = (index + 1) * self.spec.checkpoint_every_ms
        if next_time <= self.serve.horizon_ms:
            self.engine.schedule_at(next_time, self._checkpoint_tick, index + 1)
        self.checkpoint_index = index
        if self._sink is not None:
            self.segment_digest = trace_signature(self._segment)
            self._segment.clear()
            self._sink(self, index)

    # -- operations ----------------------------------------------------------

    def _avoid_set(self, extra: tuple = ()) -> frozenset[str]:
        return frozenset(self.draining) | frozenset(extra)

    def _transit_flows(self, switch: str) -> list[int]:
        """Flows currently transiting (interior hop) ``switch``.

        Endpoint flows cannot be evacuated and do not count — a drain's
        goal is zero *transit* flows."""
        out = []
        for flow_id in sorted(self.controller.flow_db):
            record = self.controller.flow_db[flow_id]
            if record.parked:
                continue
            if switch in record.current_path[1:-1]:
                out.append(flow_id)
        return out

    def _start_op(self, op_index: int) -> None:
        state = self.op_states[op_index]
        state.status = "running"
        state.started_ms = self.engine.now
        op = state.entry["op"]
        self.obs.count("ops_started", op=op)
        if op == "drain_switch":
            switch = state.entry["switch"]
            self.draining.add(switch)
            self.orchestrator.avoid_nodes = set(self.draining)
            transit = self._transit_flows(switch)
            state.detail["switch"] = switch
            state.detail["transit_at_start"] = len(transit)
            state.rounds = 1
            self._drain_gauge(switch, len(transit))
            state.moves.extend(self._drain_moves(transit))
            self._advance_op(op_index)
        elif op == "undrain_switch":
            switch = state.entry["switch"]
            self.draining.discard(switch)
            self.orchestrator.avoid_nodes = set(self.draining)
            state.detail["switch"] = switch
            self._finish_op(state)
            # Requests held off the switch may dispatch now.
            self.orchestrator.pump()
        elif op == "migrate_tenant":
            tenant = int(state.entry["tenant"])
            avoid = tuple(state.entry.get("avoid", ()))
            state.detail["tenant"] = tenant
            state.detail["avoid"] = list(avoid)
            for flow_id in sorted(self.flows):
                if self._tenant_of[flow_id] == tenant:
                    state.moves.append(self._move(flow_id, avoid=avoid))
            self._advance_op(op_index)
        else:  # rebalance
            max_moves = int(state.entry.get("max_moves", 4))
            planned, overcommitted = self._plan_rebalance(max_moves)
            state.detail["overcommitted_edges"] = overcommitted
            state.moves.extend(planned)
            self._advance_op(op_index)

    def _move(
        self,
        flow_id: int,
        target: Optional[list[str]] = None,
        avoid: tuple = (),
    ) -> dict:
        """A fresh move descriptor.  ``target`` pins an explicit path
        (rebalance); otherwise the path is recomputed at try time from
        ``avoid`` plus whatever is draining then."""
        return {
            "flow": flow_id,
            "target": list(target) if target is not None else None,
            "avoid": list(avoid),
            "scheduled_ms": self.engine.now,
            "pushed_ms": None,
            "completed_ms": None,
            "version": None,
            "retries": 0,
            "outcome": None,
        }

    def _drain_moves(self, transit: list[int]) -> list[dict]:
        return [self._move(flow_id) for flow_id in transit]

    def _drain_gauge(self, switch: str, transit: int) -> None:
        self.obs.gauge_set("ops_drain_transit_flows", float(transit), switch=switch)

    def _advance_op(self, op_index: int) -> None:
        """Run the op's next pending move, or finish the op."""
        state = self.op_states[op_index]
        if state.status != "running":
            return
        while state.cursor < len(state.moves):
            move = state.moves[state.cursor]
            if move["outcome"] is not None:
                state.cursor += 1
                continue
            self._try_move(op_index)
            return
        self._op_queue_drained(op_index)

    def _op_queue_drained(self, op_index: int) -> None:
        state = self.op_states[op_index]
        if state.entry["op"] == "drain_switch":
            switch = state.entry["switch"]
            transit = self._transit_flows(switch)
            self._drain_gauge(switch, len(transit))
            if transit and state.rounds < _MAX_DRAIN_ROUNDS:
                # Chaos recovery (or an in-flight tenant update that
                # landed mid-drain) put new flows across the switch:
                # another rolling round.
                state.rounds += 1
                state.moves.extend(self._drain_moves(transit))
                self._advance_op(op_index)
                return
            state.detail["transit_at_end"] = len(transit)
            state.detail["stranded_flows"] = transit
        self._finish_op(state)

    def _finish_op(self, state: _OpState) -> None:
        state.status = OP_COMPLETED
        state.finished_ms = self.engine.now
        self.obs.count("ops_finished", op=state.entry["op"])
        if state.started_ms is not None:
            self.obs.observe(
                "ops_op_ms", self.engine.now - state.started_ms, op=state.entry["op"]
            )

    def _try_move(self, op_index: int) -> None:
        state = self.op_states[op_index]
        move = state.active_move
        if move is None:
            self._advance_op(op_index)
            return
        flow_id = move["flow"]
        record = self.controller.flow_db.get(flow_id)
        if record is None or record.parked:
            self._end_move(op_index, move, MOVE_SKIPPED)
            return
        target = move["target"]
        if target is None:
            flow = self.flows.get(flow_id)
            src = record.current_path[0]
            dst = record.current_path[-1]
            if flow is not None:
                src, dst = flow.src, flow.dst
            try:
                target = self.topo.shortest_path_avoiding(
                    src, dst, self._avoid_set(tuple(move["avoid"]))
                )
            except NoPathError:
                self._end_move(op_index, move, MOVE_NO_PATH)
                return
        if list(record.current_path) == list(target):
            self._end_move(op_index, move, MOVE_NOOP)
            return
        busy = (
            flow_id in self.orchestrator.in_flight
            or record.pending_version is not None
        )
        if busy:
            move["retries"] += 1
            if move["retries"] > _MAX_MOVE_RETRIES:
                self._end_move(op_index, move, MOVE_STRANDED)
                return
            self.engine.schedule(_RETRY_MS, self._try_move, op_index)
            return
        # The controller is single-threaded: same queueing + service
        # delay as an orchestrator dispatch before preparation runs.
        delay = (
            self.controller.control_queue_delay()
            + self.controller.control_service_time()
        )
        self.engine.schedule(delay, self._push_move, op_index, list(target))

    def _push_move(self, op_index: int, target: list[str]) -> None:
        state = self.op_states[op_index]
        move = state.active_move
        if move is None:
            self._advance_op(op_index)
            return
        flow_id = move["flow"]
        record = self.controller.flow_db.get(flow_id)
        if record is None or record.parked:
            self._end_move(op_index, move, MOVE_SKIPPED)
            return
        if (
            flow_id in self.orchestrator.in_flight
            or record.pending_version is not None
        ):
            # Grabbed between probe and push — back to the retry loop.
            move["retries"] += 1
            if move["retries"] > _MAX_MOVE_RETRIES:
                self._end_move(op_index, move, MOVE_STRANDED)
                return
            self.engine.schedule(_RETRY_MS, self._try_move, op_index)
            return
        prepared = self.controller.prepare_update(flow_id, list(target))
        move["version"] = prepared.version
        move["pushed_ms"] = self.engine.now
        move["target"] = list(target)
        self._move_owner[flow_id] = op_index
        self.controller.push_update(prepared)

    def _end_move(self, op_index: int, move: dict, outcome: str) -> None:
        move["outcome"] = outcome
        move["completed_ms"] = self.engine.now
        self._move_owner.pop(move["flow"], None)
        state = self.op_states[op_index]
        self.obs.count("ops_moves", op=state.entry["op"], outcome=outcome)
        if outcome == MOVE_MOVED and move["pushed_ms"] is not None:
            self.obs.observe(
                "ops_move_ms", self.engine.now - move["scheduled_ms"], op=state.entry["op"]
            )
        self._advance_op(op_index)

    # -- controller completion callbacks -------------------------------------

    def _on_update_event(
        self, event: str, flow_id: int, version: Optional[int]
    ) -> None:
        op_index = self._move_owner.get(flow_id)
        if op_index is None:
            return
        state = self.op_states[op_index]
        move = state.active_move
        if move is None or move["flow"] != flow_id:
            return
        if event == "completed":
            if version == move["version"]:
                self._end_move(op_index, move, MOVE_MOVED)
        elif event == "aborted":
            if version == move["version"]:
                # Chaos rolled the move back — recompute and retry.
                self._move_owner.pop(flow_id, None)
                move["version"] = None
                move["pushed_ms"] = None
                move["retries"] += 1
                if move["retries"] > _MAX_MOVE_RETRIES:
                    self._end_move(op_index, move, MOVE_STRANDED)
                    return
                self.engine.schedule(_RETRY_MS, self._try_move, op_index)
        elif event == "parked":
            self._end_move(op_index, move, MOVE_PARKED)
        # "reissued": recovery re-driving its own reroute — wait.

    # -- run / finalize -------------------------------------------------------

    def run(self) -> None:
        """Advance the session to its horizon (fresh or replayed)."""
        self.service.run()

    def finalize(self) -> OpsResult:
        """Horizon reached: close the books and build the result."""
        for state in self.op_states:
            if state.status == "running":
                state.status = OP_UNFINISHED
            elif state.status == "pending":
                state.status = OP_NOT_STARTED
            for move in state.moves:
                if move["outcome"] is None:
                    # Still waiting on the pipeline (or a pending
                    # retry) when the horizon expired.
                    move["outcome"] = MOVE_UNFINISHED
        moved = [
            m
            for state in self.op_states
            for m in state.moves
            if m["outcome"] == MOVE_MOVED and m["pushed_ms"] is not None
        ]
        churn = dict(vars(self.service.close()))
        churn["slo"] = {
            "e2e_ms": churn["slo"]["e2e_ms"],
            "move_wait_ms": slo_summary(
                [m["pushed_ms"] - m["scheduled_ms"] for m in moved]
            ),
            "move_install_ms": slo_summary(
                [m["completed_ms"] - m["pushed_ms"] for m in moved]
            ),
            "move_e2e_ms": slo_summary(
                [m["completed_ms"] - m["scheduled_ms"] for m in moved]
            ),
        }
        return OpsResult(
            **churn,
            session=self.spec,
            ops=[state.to_record() for state in self.op_states],
            path_cache=self.topo.path_cache_stats(),
            resumed_from=self.resumed_from,
        )

    # -- rebalance planning ---------------------------------------------------

    def _edge_loads(self) -> dict[tuple[str, str], float]:
        loads: dict[tuple[str, str], float] = {}
        for flow_id in sorted(self.controller.flow_db):
            record = self.controller.flow_db[flow_id]
            if record.parked:
                continue
            path = record.current_path
            size = float(record.flow.size)
            for a, b in zip(path, path[1:]):
                loads[(a, b)] = loads.get((a, b), 0.0) + size
        return loads

    def _plan_rebalance(
        self, max_moves: int
    ) -> tuple[list[dict], list[list[str]]]:
        """Deterministic greedy plan: shed the largest flows from
        overcommitted directed edges onto their other serve path,
        accepting a move only when its capacity footprint (the
        interference analyzer's deltas) relieves the hot edge without
        overcommitting any other edge."""
        capacities = link_capacities(self.topo)
        loads = self._edge_loads()
        overcommitted = sorted(
            edge
            for edge, load in loads.items()
            if load > capacities.get(edge, float("inf"))
        )
        planned: list[dict] = []
        moved: set[int] = set()
        for edge in overcommitted:
            if len(planned) >= max_moves:
                break
            candidates = []
            for flow_id in sorted(self.controller.flow_db):
                if flow_id in moved or flow_id not in self.flows:
                    continue
                record = self.controller.flow_db[flow_id]
                if record.parked:
                    continue
                path = record.current_path
                if edge in zip(path, path[1:]):
                    candidates.append(
                        (-float(record.flow.size), flow_id)
                    )
            for _, flow_id in sorted(candidates):
                if len(planned) >= max_moves:
                    break
                if loads.get(edge, 0.0) <= capacities.get(edge, float("inf")):
                    break
                record = self.controller.flow_db[flow_id]
                flow = self.flows[flow_id]
                current = tuple(record.current_path)
                target = (
                    flow.alternate if current == flow.primary else flow.primary
                )
                if tuple(target) == current:
                    continue
                deltas = footprint_from_paths(
                    flow_id, current, tuple(target), float(record.flow.size)
                ).capacity_deltas()
                if deltas.get(edge, 0.0) >= 0.0:
                    continue  # does not relieve the hot edge
                if any(
                    delta > 0.0
                    and loads.get(e, 0.0) + delta
                    > capacities.get(e, float("inf"))
                    for e, delta in deltas.items()
                ):
                    continue  # would overcommit somewhere else
                for e, delta in deltas.items():
                    loads[e] = loads.get(e, 0.0) + delta
                moved.add(flow_id)
                planned.append(self._move(flow_id, target=list(target)))
        return planned, [list(edge) for edge in overcommitted]


def build_session(
    spec: SessionSpec, obs: Optional[ObsContext] = None, sink: Optional[Sink] = None
) -> OpsSession:
    """Construct a fresh, fully wired session.  The background churn is
    the embedded serve spec's own :class:`ServiceSession`, so a session
    with an empty timeline matches a plain serve run of that spec.
    ``sink(session, index)`` is called at each checkpoint tick."""
    # Operations move flows through the P4Update prepare/push pipeline,
    # so sessions always deploy it, whatever strategy the spec names.
    service = ServiceSession(
        spec.serve_spec(), obs if obs is not None else NULL_OBS,
        strategy="p4update",
    )
    session = OpsSession(spec, service, sink)
    session.wire()
    # Checkpoint ticks sign the rows they collect: the trace need keep
    # none of its own.
    service.deployment.network.trace.stream()
    return session


def run_session(
    spec: SessionSpec, obs: Optional[ObsContext] = None
) -> OpsResult:
    """Build, run to the horizon and finalize — the one-shot path used
    by sweep shards and the fuzz oracle (no checkpointing)."""
    session = build_session(spec, obs=obs)
    session.run()
    return session.finalize()
