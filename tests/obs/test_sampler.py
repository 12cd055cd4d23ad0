"""The host CPU sampler: calibration against a known two-layer split,
signal safety, target naming, the report formats, and that a sampled
run is the plain run."""

import math
import os
import signal
import sys
import time
from collections import deque
from functools import partial
from itertools import repeat

import pytest

from repro.chaos.campaign import load_campaign_file
from repro.chaos.runner import run_campaign
from repro.core.labeling import distance_labels
from repro.obs.context import make_obs
from repro.obs.sampler import (
    OUTSIDE,
    Sampler,
    format_samples,
    layer_shares,
    merge_samples,
)
from repro.sim.engine import Engine
from repro.topo.paths import dijkstra_lengths

from tests.obs.test_determinism_obs import run_fig1

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

RING = 1000


def calibrate(min_samples: int) -> tuple[float, float, float, int]:
    """Alternate two phases under one sampler until it holds
    ``min_samples``.  Each phase is one call whose Python frames all lie
    in one layer: a C-level ``map`` over ``repro.topo``'s Dijkstra on a
    ring, then over ``repro.core``'s distance labels on a path.  Each
    phase's CPU is measured with ``time.process_time`` around its call.
    Returns the measured ``repro.topo`` split, its sampled share and
    standard error, and the sample count."""
    adj = {
        f"n{i}": {f"n{(i - 1) % RING}": {"latency_ms": 1.0},
                  f"n{(i + 1) % RING}": {"latency_ms": 1.0}}
        for i in range(RING)
    }
    path = [f"n{i}" for i in range(RING)]
    topo_cpu = core_cpu = 0.0
    with Sampler() as sampler:
        while sum(sampler.counts.values()) < min_samples:
            started = time.process_time()
            deque(map(partial(dijkstra_lengths, adj), repeat("n0", 100)), maxlen=0)
            topo_cpu += time.process_time() - started
            started = time.process_time()
            deque(map(distance_labels, repeat(path, 500)), maxlen=0)
            core_cpu += time.process_time() - started
    report = sampler.report()
    share, se = layer_shares(report)["repro.topo"]
    return topo_cpu / (topo_cpu + core_cpu), share, se, sum(r["samples"] for r in report)


def test_sampled_layer_split_matches_the_measured_split():
    measured, share, se, n = calibrate(min_samples=400)
    assert n >= 400
    assert abs(share - measured) <= 3 * se, (measured, share, se, n)


def test_a_raising_body_restores_the_handler_and_disarms_the_timer():
    def previous(_signum, _frame):
        pass

    saved = signal.signal(signal.SIGPROF, previous)
    try:
        with pytest.raises(RuntimeError, match="body failed"):
            with Sampler():
                assert signal.getitimer(signal.ITIMER_PROF) != (0.0, 0.0)
                raise RuntimeError("body failed")
        assert signal.getsignal(signal.SIGPROF) is previous
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGPROF, saved)


def test_a_sample_names_the_innermost_repro_function():
    sampler = Sampler()
    engine = Engine()
    # The callback is this test module's lambda: outside repro, so the
    # sample goes to the engine frame that called it.
    engine.schedule(1.0, lambda: sampler._sample(signal.SIGPROF, sys._getframe()))
    engine.run()
    sampler._sample(signal.SIGPROF, sys._getframe())
    assert sampler.report() == [
        {"target": OUTSIDE, "samples": 1},
        {"target": "repro.sim.engine.Engine.step", "samples": 1},
    ]


def test_merge_samples_sums_per_target_and_ranks():
    merged = merge_samples([
        {"target": "repro.b.f", "samples": 2},
        {"target": "repro.a.g", "samples": 3},
        {"target": "repro.b.f", "samples": 1},
        {"target": "repro.c.h", "samples": 4},
    ])
    assert merged == [
        {"target": "repro.c.h", "samples": 4},
        {"target": "repro.a.g", "samples": 3},
        {"target": "repro.b.f", "samples": 3},
    ]


def test_format_samples_prints_count_layers_and_top_targets():
    rows = merge_samples([
        {"target": "repro.sim.engine.Engine.step", "samples": 2},
        {"target": "repro.sim.trace.Trace.record", "samples": 1},
        {"target": "repro.p4.registers.RegisterArray.read", "samples": 1},
    ])
    p, se = layer_shares(rows)["repro.sim"]
    assert p == 0.75 and se == pytest.approx(math.sqrt(0.75 * 0.25 / 4))
    lines = format_samples(rows, top=1).splitlines()
    assert lines[0] == "samples: 4"
    assert lines[2].split() == ["0.750", "0.217", "repro.sim"]
    assert lines[3].split() == ["0.250", "0.217", "repro.p4"]
    assert lines[-2].split()[-1] == "target"
    assert lines[-1].split() == ["2", "0.500", "repro.sim.engine.Engine.step"]


def test_build_network_builds_a_plain_engine():
    assert type(run_fig1(0).network.engine) is Engine
    assert type(run_fig1(0, obs=make_obs()).network.engine) is Engine
    assert type(run_fig1(0, obs=make_obs(causal=True)).network.engine) is Engine


def test_sampled_campaign_signs_the_same():
    """Chaos smoke (reliable control, so timers are cancelled): sampled
    runs, repeated until the sampler has fired, sign like the plain one."""
    campaign = load_campaign_file(os.path.join(REPO, "examples", "chaos_smoke.json"))
    plain = run_campaign(campaign).trace_signature
    with Sampler() as sampler:
        while not sampler.counts:
            assert run_campaign(campaign).trace_signature == plain
