"""Central parameter set for all experiments.

Every timing knob in the reproduction lives here so that experiments
are comparable and the substitution choices (DESIGN.md §1) are visible
in one place.  All times are milliseconds; capacities and flow sizes
are abstract rate units (the paper normalises the same way).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

# Propagation speed in optical fibre, km per millisecond.  The paper
# writes "2 * 10e6 km/s"; the physically meaningful value is 2*10^5 km/s
# = 200 km/ms, which we use (DESIGN.md §2).
FIBRE_KM_PER_MS = 200.0


@dataclass
class DelayDistribution:
    """A named delay distribution sampled from a seeded generator."""

    kind: str = "constant"      # constant | exponential | normal | uniform
    value: float = 0.0           # constant value, or mean
    spread: float = 0.0          # std-dev (normal) / half-range (uniform)
    floor: float = 0.0           # samples are clamped below at this value

    def sample(self, rng: np.random.Generator) -> float:
        if self.kind == "constant":
            sample = self.value
        elif self.kind == "exponential":
            sample = rng.exponential(self.value)
        elif self.kind == "normal":
            sample = rng.normal(self.value, self.spread)
        elif self.kind == "uniform":
            sample = rng.uniform(self.value - self.spread, self.value + self.spread)
        else:
            raise ValueError(f"unknown delay distribution {self.kind!r}")
        return max(self.floor, sample)

    @classmethod
    def constant(cls, value: float) -> "DelayDistribution":
        return cls(kind="constant", value=value)

    @classmethod
    def exponential(cls, mean: float, floor: float = 0.0) -> "DelayDistribution":
        return cls(kind="exponential", value=mean, floor=floor)

    @classmethod
    def normal(cls, mean: float, std: float, floor: float = 0.0) -> "DelayDistribution":
        return cls(kind="normal", value=mean, spread=std, floor=floor)

    @classmethod
    def uniform(cls, low: float, high: float) -> "DelayDistribution":
        mid = (low + high) / 2.0
        return cls(kind="uniform", value=mid, spread=(high - low) / 2.0, floor=low)


@dataclass
class SimParams:
    """All timing / behaviour knobs of one experiment run."""

    seed: int = 0

    # -- switch data plane ------------------------------------------------
    # Per-packet pipeline traversal cost on the software target (BMv2).
    pipeline_delay: DelayDistribution = field(
        default_factory=lambda: DelayDistribution.constant(0.3)
    )
    # Installing/flipping a forwarding rule.  P4Update applies updates
    # as register writes in the data plane (sub-ms); the OpenFlow-based
    # baselines (ez-Segway, Central) go through the switch agent's
    # flow-mod path, measured at ms to tens of ms ([32, 50]).  The
    # Dionysus-style single-flow scenario replaces BOTH with exp(100)
    # ms (paper §9.1) so that comparison stays apples-to-apples.
    rule_install_delay: DelayDistribution = field(
        default_factory=lambda: DelayDistribution.uniform(0.5, 2.0)
    )
    baseline_install_delay: DelayDistribution = field(
        default_factory=lambda: DelayDistribution.uniform(3.0, 12.0)
    )
    # Resubmission back-off while a UNM waits for its UIM (paper §8).
    resubmit_interval_ms: float = 1.0
    # P4 cannot create packets from scratch: UNMs are cloned from
    # ongoing packets of the flow (paper §8/App. B), so originating a
    # UNM waits for the next flow packet to pass.  Mean inter-packet
    # gap at the origination points (flow egress, segment egresses).
    unm_generation_delay: DelayDistribution = field(
        default_factory=lambda: DelayDistribution.exponential(4.0)
    )
    # Hard cap on resubmissions per waiting packet before giving up and
    # alerting the controller (prevents infinite loops under faults).
    max_resubmits: int = 10_000

    # -- control plane -----------------------------------------------------
    # Service time per message at the single-threaded controller.  The
    # paper's Central discussion ([40], §9.1) assumes a controller that
    # is "also responsible for other tasks such as new path setup and
    # flow monitoring", so acknowledgements experience queuing and
    # processing delay; 10 ms mean matches OpenFlow-controller-scale
    # measurements.
    controller_service: DelayDistribution = field(
        default_factory=lambda: DelayDistribution.exponential(10.0, floor=0.5)
    )
    # Background utilisation of the controller by "other control
    # messages" ([40]): incoming messages additionally wait behind a
    # backlog modelled as an M/M/1 queue at this utilisation (extra
    # wait ~ exp(util / (1 - util) * service mean)).  Hits systems that
    # put controller round-trips on the update's critical path.
    controller_background_util: float = 0.7
    # §11 failure handling, controller side: when > 0, an update that
    # produced no UFM within this window is re-triggered (covers loss
    # of the final notification when no switch is left waiting).
    controller_update_timeout_ms: float = 0.0
    # Static pre-execution gate: verify every prepared linear plan
    # (repro.analysis.plan) before its UIMs leave the controller.
    # Rejected plans raise PlanVerificationError and roll back the
    # pending Flow-DB state instead of deadlocking the data plane.
    verify_update_plans: bool = False

    # -- §11 failure handling (repro.chaos) --------------------------------
    # Reliable control delivery: wrap controller -> switch UIM/TagFlip
    # sends in sequence-numbered envelopes with ack tracking and
    # seeded exponential backoff + jitter.  Off by default — with it
    # off the control path is byte-identical to the pre-chaos build.
    reliable_control: bool = False
    # First retransmission timeout; attempt k waits
    # timeout * backoff**(k-1) + U(0, jitter).
    control_retry_timeout_ms: float = 80.0
    control_retry_backoff: float = 2.0
    control_retry_jitter_ms: float = 5.0
    # Retransmissions per message before escalating to the controller's
    # failure handler (the target is then treated as unreachable).
    control_max_retries: int = 6
    # Crash register policy: False = power-cycle semantics (pipeline
    # registers lost on crash), True = data-plane state survives.
    crash_preserves_state: bool = False

    # -- fat-tree control latency (DESIGN.md §1, Huang et al. stand-in) ----
    fattree_control_latency: DelayDistribution = field(
        default_factory=lambda: DelayDistribution.normal(4.0, 2.0, floor=0.5)
    )

    # -- probe traffic (Fig. 2) ---------------------------------------------
    probe_rate_pps: float = 125.0
    probe_ttl: int = 64

    # -- safety horizon ------------------------------------------------------
    max_sim_time_ms: float = 60_000.0

    # -- tracing -------------------------------------------------------------
    # Bound on retained trace events (0 = unbounded).  When positive the
    # Trace becomes a ring keeping only the newest events, with drops
    # counted in ``Trace.dropped_events`` — million-request serve runs
    # can trace without OOMing.  Live subscribers (consistency checker,
    # orchestrator) still see every event.
    trace_max_events: int = 0

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def with_seed(self, seed: int) -> "SimParams":
        return replace(self, seed=seed)

    def with_dionysus_install_delay(self) -> "SimParams":
        """exp(100) ms rule-install delay for every system (the paper's
        single-flow setup slows each node uniformly)."""
        return replace(
            self,
            rule_install_delay=DelayDistribution.exponential(100.0),
            baseline_install_delay=DelayDistribution.exponential(100.0),
        )


DEFAULT_PARAMS = SimParams()

#: SimParams fields a serve or sweep spec may override (scalar knobs
#: only — delay distributions stay code-defined so specs remain
#: diffable data).
OVERRIDABLE_PARAMS = frozenset(
    f.name for f in fields(SimParams) if f.type in ("int", "float", "bool")
)
