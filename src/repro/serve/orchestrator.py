"""Admission control and dependency-aware update orchestration.

The orchestrator sits between tenants and the controller's verified
prepare/push path.  Its job:

* **admission** — a bounded queue with an optional token bucket; when
  the queue is full, overflow is either rejected outright or parked in
  an unbounded side queue and re-admitted as the main queue drains
  (``shed_policy``);
* **dependency tracking** — at most one in-flight update per flow
  (each flow owns a single pending-version register slot in the data
  plane, so same-flow updates *must* serialize); optionally, updates
  whose path footprints share a switch serialize too
  (``switch_conflict="serialize"``); same-flow requests still waiting
  in the queue can be merged (the older one is superseded);
* **concurrency** — everything else dispatches concurrently, up to
  ``max_in_flight`` (``max_in_flight=1`` forces a serial service, the
  baseline the acceptance test compares against);
* **recovery composition** — chaos-triggered aborts/parks arrive via
  the controller's update listeners; the affected request reaches its
  terminal outcome exactly once and the slot is released so queued
  work keeps flowing.  A flow busy with failure recovery (parked, or
  with a recovery reroute pending) is never dispatched onto.

All waiting happens on the simulated clock — the orchestrator never
blocks a real thread (enforced by the ``blocking-in-service`` lint
rule in CI).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from repro.analysis.interference import (
    PlanFootprint,
    footprint_from_paths,
    pair_conflicts,
)
from repro.obs.context import NULL_OBS, ObsContext
from repro.serve.model import (
    OUTCOME_ABORTED,
    OUTCOME_COMPLETED,
    OUTCOME_FLOW_PARKED,
    OUTCOME_MERGED,
    OUTCOME_REJECTED,
    OUTCOME_UNFINISHED,
    UpdateRequest,
)
from repro.serve.spec import ServeSpec
from repro.serve.workload import ServiceFlow
from repro.sim.trace import (
    KIND_REQUEST_ADMITTED,
    KIND_REQUEST_DISPATCHED,
    KIND_REQUEST_DONE,
    KIND_REQUEST_PUSHED,
    KIND_REQUEST_REQUEUED,
    KIND_REQUEST_SHED,
    KIND_REQUEST_SUBMITTED,
    KIND_REQUEST_WAIT,
    KIND_RULE_CHANGE,
    TraceEvent,
)

_ORCH = "orchestrator"


class ServiceOrchestrator:
    """Drives tenant update requests through one deployment."""

    def __init__(
        self,
        spec: ServeSpec,
        deployment: Any,
        population: list[ServiceFlow],
        obs: Optional[ObsContext] = None,
        capacities: Optional[dict[tuple[str, str], float]] = None,
    ) -> None:
        self.spec = spec
        self.deployment = deployment
        self.engine = deployment.network.engine
        self.controller = deployment.controller
        self.trace = deployment.network.trace
        self.obs = obs if obs is not None else NULL_OBS
        metrics = self.obs.metrics
        self._m_admission_wait = metrics.family("histogram", "serve_admission_wait_ms")
        self._m_prepare = metrics.family("histogram", "serve_prepare_ms")
        self._m_e2e = metrics.family("histogram", "serve_e2e_ms")
        self._m_install = metrics.family("histogram", "serve_install_ms")
        self._m_verify = metrics.family("histogram", "serve_verify_ms")
        self._m_in_flight = metrics.family("gauge", "serve_in_flight")
        self._m_queue_depth = metrics.family("gauge", "serve_queue_depth")
        self._m_parked = metrics.family("gauge", "serve_parked_requests")
        self.flows = {f.flow_id: f for f in population}
        # Admission state.
        self.pending: deque[UpdateRequest] = deque()
        self.parked_requests: deque[UpdateRequest] = deque()
        self._tokens = float(spec.burst)
        self._tokens_at = 0.0
        self._wake_armed = False
        # Orchestration state.
        self.in_flight: dict[int, UpdateRequest] = {}
        self._busy_switches: dict[str, int] = {}
        self.peak_in_flight = 0
        # Switches an operations session is draining: a queued toggle
        # whose target path transits one of these is held (the pump
        # re-evaluates on every release / undrain), so background
        # churn never re-routes *onto* a switch being evacuated.
        self.avoid_nodes: set[str] = set()
        # Static interference gate (spec.static_interference).  The
        # gate only *reads* orchestrator/controller state — no RNG, no
        # clock, no trace events — so a gated conflict-free run is
        # bit-identical to a gate-off run.
        self._gate = spec.static_interference
        self._capacities = capacities or {}
        self._inflight_footprints: dict[int, PlanFootprint] = {}
        self.interference_events: list[dict] = []
        self._gate_logged: set[int] = set()
        # Bookkeeping for results.
        self.requests: list[UpdateRequest] = []
        # Contract "completed" events per flow, recovery reroutes included.
        self.completions: dict[int, int] = {}
        self._next_id = 0
        # Closed-loop hook: called once per terminal outcome.
        self.on_terminal: Optional[Callable[[UpdateRequest], None]] = None
        self.controller.update_listeners.append(self._on_update_event)
        self.trace.subscribe(self._on_trace_event, (KIND_RULE_CHANGE,))

    # -- token bucket (simulated time, lazy refill) -------------------------

    def _refill(self) -> None:
        if self.spec.rate_per_s <= 0:
            return
        now = self.engine.now
        gained = (now - self._tokens_at) * self.spec.rate_per_s / 1000.0
        self._tokens = min(float(self.spec.burst), self._tokens + gained)
        self._tokens_at = now

    #: Accumulated-refill rounding slack: without it a wake scheduled
    #: exactly one token away can arrive at 0.999...9 tokens and re-arm
    #: a zero-delay wake forever.
    _EPS = 1e-9

    def _take_token(self) -> bool:
        if self.spec.rate_per_s <= 0:
            return True
        self._refill()
        if self._tokens >= 1.0 - self._EPS:
            self._tokens = max(0.0, self._tokens - 1.0)
            return True
        return False

    def _arm_token_wake(self) -> None:
        """Schedule one pump at the instant the next token accrues."""
        if self._wake_armed or self.spec.rate_per_s <= 0:
            return
        self._refill()
        deficit = 1.0 - self._tokens
        if deficit <= self._EPS:
            return
        self._wake_armed = True
        delay_ms = deficit * 1000.0 / self.spec.rate_per_s
        self.engine.schedule(delay_ms, self._token_wake)

    def _token_wake(self) -> None:
        self._wake_armed = False
        self.pump()

    # -- admission -----------------------------------------------------------

    def submit(self, flow_id: int) -> UpdateRequest:
        """A tenant asks to toggle ``flow_id`` to its other path."""
        now = self.engine.now
        request = UpdateRequest(self._next_id, flow_id, submitted_ms=now)
        self._next_id += 1
        self.requests.append(request)
        self.trace.record(
            now, KIND_REQUEST_SUBMITTED, _ORCH,
            request=request.request_id, flow=flow_id,
        )
        if self.spec.conflict_policy == "merge":
            self._merge_queued(request)
        if len(self.pending) >= self.spec.queue_depth:
            self._shed(request)
        else:
            self._admit(request)
        self._gauges()
        self.pump()
        return request

    def _merge_queued(self, newer: UpdateRequest) -> None:
        """Supersede an undispatched same-flow request: toggling twice
        from the same queued state is a no-op, so the older request
        collapses into the newer one."""
        for queued in self.pending:
            if queued.flow_id == newer.flow_id:
                self.pending.remove(queued)
                self._finish(queued, OUTCOME_MERGED)
                return
        for queued in self.parked_requests:
            if queued.flow_id == newer.flow_id:
                self.parked_requests.remove(queued)
                self._finish(queued, OUTCOME_MERGED)
                return

    def _shed(self, request: UpdateRequest) -> None:
        self.trace.record(
            self.engine.now, KIND_REQUEST_SHED, _ORCH,
            request=request.request_id, flow=request.flow_id,
            policy=self.spec.shed_policy,
        )
        if self.spec.shed_policy == "reject":
            self._finish(request, OUTCOME_REJECTED)
        else:
            self.parked_requests.append(request)

    def _admit(self, request: UpdateRequest) -> None:
        request.admitted_ms = self.engine.now
        request.queue_depth_at_admit = len(self.pending)
        self.pending.append(request)
        self.trace.record(
            self.engine.now, KIND_REQUEST_ADMITTED, _ORCH,
            request=request.request_id, queue_depth=request.queue_depth_at_admit,
        )

    def _drain_parked(self) -> None:
        while self.parked_requests and len(self.pending) < self.spec.queue_depth:
            self._admit(self.parked_requests.popleft())

    # -- dispatch ------------------------------------------------------------

    def _footprint(self, flow_id: int) -> frozenset[str]:
        return self.flows[flow_id].nodes()

    def _toggle_target(self, flow_id: int) -> Optional[tuple[str, ...]]:
        """The path the flow's next toggle would move onto (same rule
        as ``_execute``), or None when the flow is gone."""
        record = self.controller.flow_db.get(flow_id)
        if record is None:
            return None
        flow = self.flows[flow_id]
        if tuple(record.current_path) == flow.primary:
            return flow.alternate
        return flow.primary

    def _blocked_by_avoid(self, flow_id: int) -> bool:
        if not self.avoid_nodes:
            return False
        target = self._toggle_target(flow_id)
        return target is not None and any(
            n in self.avoid_nodes for n in target
        )

    # -- static interference gate --------------------------------------------

    def _candidate_footprint(self, flow_id: int) -> Optional[PlanFootprint]:
        """The footprint the flow's next toggle would have, from the
        controller's current view (same toggle rule as ``_execute``)."""
        record = self.controller.flow_db.get(flow_id)
        if record is None:
            return None
        flow = self.flows[flow_id]
        if tuple(record.current_path) == flow.primary:
            target = flow.alternate
        else:
            target = flow.primary
        return footprint_from_paths(
            flow_id, tuple(record.current_path), tuple(target), flow.size
        )

    def _gate_conflicts(self, request: UpdateRequest) -> list[dict]:
        """Conflicts between the candidate and every in-flight update."""
        if self._gate == "off" or not self._inflight_footprints:
            return []
        candidate = self._candidate_footprint(request.flow_id)
        if candidate is None:
            return []
        conflicts: list[dict] = []
        for other in self._inflight_footprints.values():
            conflicts.extend(
                pair_conflicts(candidate, other, self._capacities)
            )
        return conflicts

    def _record_gate(
        self, request: UpdateRequest, action: str, conflicts: list[dict]
    ) -> None:
        """Log one gate decision (first block only for held requests —
        re-evaluations at later pumps would say the same thing)."""
        if request.request_id in self._gate_logged:
            return
        self._gate_logged.add(request.request_id)
        self.interference_events.append(
            {
                "time": self.engine.now,
                "request": request.request_id,
                "flow": request.flow_id,
                "action": action,
                "conflicts": conflicts,
            }
        )
        self.obs.count("serve_interference_gate", action=action)

    def _dispatchable(self, request: UpdateRequest) -> bool:
        flow_id = request.flow_id
        if flow_id in self.in_flight:
            return False
        cap = self.spec.max_in_flight
        if cap and len(self.in_flight) >= cap:
            return False
        record = self.controller.flow_db.get(flow_id)
        if record is None:
            return False
        # A flow parked by recovery, or with a recovery reroute still
        # pending, owns its version-register slot — hands off.
        if record.parked or record.pending_version is not None:
            return False
        if self.spec.switch_conflict == "serialize":
            if any(n in self._busy_switches for n in self._footprint(flow_id)):
                return False
        if self._blocked_by_avoid(flow_id):
            return False
        # Strategy-supplied dispatch gate (repro.algos): a deployment
        # may veto a dispatch to enforce its own install order.  Gates
        # must only *read* orchestrator/controller state — no RNG, no
        # clock, no trace events — so gate-free strategies stay
        # byte-identical.
        gate = getattr(self.deployment, "dispatch_gate", None)
        if gate is not None and not gate(self, request):
            return False
        return True

    def pump(self) -> None:
        """Dispatch every queued request that can go right now.

        Scans in FIFO order but skips blocked requests, so one
        conflicted flow never head-of-line-blocks independent work.
        """
        self._drain_parked()
        progressed = True
        while progressed:
            progressed = False
            for request in list(self.pending):
                if not self._dispatchable(request):
                    continue
                if self._gate != "off":
                    conflicts = self._gate_conflicts(request)
                    if conflicts:
                        if self._gate == "reject":
                            self.pending.remove(request)
                            self._record_gate(request, "reject", conflicts)
                            self._finish(request, OUTCOME_REJECTED)
                            progressed = True
                            continue
                        if self._gate == "serialize":
                            # Hold until the conflicting in-flight
                            # update releases its slot (pump runs on
                            # every release).
                            self._record_gate(request, "hold", conflicts)
                            continue
                        self._record_gate(request, "warn", conflicts)
                if not self._take_token():
                    self._arm_token_wake()
                    self._record_wait_reasons()
                    self._gauges()
                    return
                self.pending.remove(request)
                self._dispatch(request)
                progressed = True
        self._record_wait_reasons()
        self._gauges()

    def _wait_reason(self, request: UpdateRequest) -> str:
        """Why a queued request is not dispatching right now."""
        flow_id = request.flow_id
        if flow_id in self.in_flight:
            return "conflict_wait"
        record = self.controller.flow_db.get(flow_id)
        if record is not None and (
            record.parked or record.pending_version is not None
        ):
            return "recovery"
        if self.spec.switch_conflict == "serialize":
            if any(n in self._busy_switches for n in self._footprint(flow_id)):
                return "conflict_wait"
        if self._blocked_by_avoid(flow_id):
            return "conflict_wait"
        if self._gate == "serialize" and self._gate_conflicts(request):
            return "conflict_wait"
        gate = getattr(self.deployment, "dispatch_gate", None)
        if gate is not None and not gate(self, request):
            return "conflict_wait"
        return "queue_wait"

    def _record_wait_reasons(self) -> None:
        """Record each waiting request whose wait reason changed.

        Runs at each ``pump`` exit point — the only instants blocking
        state changes — and only *reads* orchestrator/controller state,
        so no event is scheduled and no RNG is drawn."""
        for queue in (self.pending, self.parked_requests):
            for request in queue:
                reason = self._wait_reason(request)
                if reason != request.wait_reason:
                    request.wait_reason = reason
                    self.trace.record(
                        self.engine.now, KIND_REQUEST_WAIT, _ORCH,
                        request=request.request_id, to=reason,
                    )

    def _dispatch(self, request: UpdateRequest) -> None:
        now = self.engine.now
        request.dispatched_ms = now
        self.in_flight[request.flow_id] = request
        if self._gate != "off":
            footprint = self._candidate_footprint(request.flow_id)
            if footprint is not None:
                self._inflight_footprints[request.flow_id] = footprint
        self.peak_in_flight = max(self.peak_in_flight, len(self.in_flight))
        for node in self._footprint(request.flow_id):
            self._busy_switches[node] = self._busy_switches.get(node, 0) + 1
        self.trace.record(
            now, KIND_REQUEST_DISPATCHED, _ORCH,
            request=request.request_id, flow=request.flow_id,
        )
        if self.obs.enabled:
            self._m_admission_wait[()].observe(now - request.submitted_ms)
        # The controller is single-threaded: preparation happens after
        # its queueing delay + per-message service time.
        delay = (
            self.controller.control_queue_delay()
            + self.controller.control_service_time()
        )
        self.engine.schedule(delay, self._execute, request)

    def _execute(self, request: UpdateRequest) -> None:
        if request.terminal:
            self._release(request.flow_id)
            self.pump()
            return
        record = self.controller.flow_db[request.flow_id]
        if record.parked or record.pending_version is not None:
            # Failure recovery grabbed the flow between dispatch and
            # execution — back to the queue, slot freed.
            self._release(request.flow_id)
            request.wait_reason = "recovery"
            self.trace.record(
                self.engine.now, KIND_REQUEST_REQUEUED, _ORCH,
                request=request.request_id,
            )
            self.pending.appendleft(request)
            self.pump()
            return
        flow = self.flows[request.flow_id]
        if tuple(record.current_path) == flow.primary:
            target = list(flow.alternate)
        else:
            target = list(flow.primary)
        prepared = self.controller.prepare_update(
            request.flow_id, target, self.deployment.update_type
        )
        request.version = prepared.version
        request.pushed_ms = self.engine.now
        self.trace.record(
            self.engine.now, KIND_REQUEST_PUSHED, self.controller.name,
            request=request.request_id, version=prepared.version,
        )
        if self.obs.enabled:
            self._m_prepare[()].observe(
                self.engine.now - (request.dispatched_ms or 0.0)
            )
        self.controller.push_update(prepared)

    # -- lifecycle notifications --------------------------------------------

    def _on_update_event(
        self, event: str, flow_id: int, version: Optional[int]
    ) -> None:
        request = self.in_flight.get(flow_id)
        if event == "completed":
            self.completions[flow_id] = self.completions.get(flow_id, 0) + 1
            if request is not None and request.version == version:
                self._finish(request, OUTCOME_COMPLETED)
                self._release(flow_id)
        elif event == "aborted":
            if request is not None and request.version == version:
                self._finish(request, OUTCOME_ABORTED)
                self._release(flow_id)
        elif event == "parked":
            if request is not None and not request.terminal:
                self._finish(request, OUTCOME_FLOW_PARKED)
                self._release(flow_id)
        # "reissued" is recovery re-driving its own reroute; nothing to
        # do — the slot stays blocked via record.pending_version.
        self.pump()

    def _on_trace_event(self, event: TraceEvent) -> None:
        # Routed here: rule_change only.
        request = self.in_flight.get(event.detail.get("flow", -1))
        if request is not None and request.pushed_ms is not None:
            request.last_install_ms = event.time

    def _release(self, flow_id: int) -> None:
        self._inflight_footprints.pop(flow_id, None)
        if self.in_flight.pop(flow_id, None) is None:
            return
        for node in self._footprint(flow_id):
            count = self._busy_switches.get(node, 0) - 1
            if count <= 0:
                self._busy_switches.pop(node, None)
            else:
                self._busy_switches[node] = count

    def _finish(self, request: UpdateRequest, outcome: str) -> None:
        now = self.engine.now
        request.finish(outcome, now)
        self.trace.record(
            now, KIND_REQUEST_DONE, _ORCH,
            request=request.request_id, flow=request.flow_id,
            outcome=outcome,
        )
        if self.obs.enabled and outcome == OUTCOME_COMPLETED:
            self._m_e2e[()].observe(now - request.submitted_ms)
            if request.pushed_ms is not None:
                anchor = request.last_install_ms or request.pushed_ms
                self._m_install[()].observe(anchor - request.pushed_ms)
                self._m_verify[()].observe(now - anchor)
        if self.on_terminal is not None:
            self.on_terminal(request)

    def _gauges(self) -> None:
        if self.obs.enabled:
            self._m_in_flight[()].set(float(len(self.in_flight)))
            self._m_queue_depth[()].set(float(len(self.pending)))
            self._m_parked[()].set(float(len(self.parked_requests)))

    # -- teardown ------------------------------------------------------------

    def finalize(self) -> None:
        """Horizon reached: everything still non-terminal is unfinished."""
        for request in self.requests:
            if not request.terminal:
                self._finish(request, OUTCOME_UNFINISHED)
        self.trace.unsubscribe(self._on_trace_event)
