"""Engine profiler attribution and report shape, and the profiled
engine: same simulation, every event counted."""

import os

from repro.chaos.campaign import load_campaign_file
from repro.chaos.runner import run_campaign
from repro.obs import make_obs
from repro.obs.profiler import EngineProfiler, ProfiledEngine, _target_name
from repro.sim.engine import Engine
from repro.sweep.merge import format_profile

from tests.obs.test_determinism_obs import run_fig1

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def a_callback():
    pass


class Thing:
    def method(self):
        pass


def test_target_name_for_functions_and_methods():
    assert _target_name(a_callback).endswith("a_callback")
    assert "Thing.method" in _target_name(Thing().method)


def test_record_accumulates_per_target():
    prof = EngineProfiler()
    prof.record(a_callback, 0.002)
    prof.record(a_callback, 0.001)
    prof.record(Thing().method, 0.010)
    assert sum(row["calls"] for row in prof.report()) == 3
    assert abs(prof.total_seconds - 0.013) < 1e-12
    rows = prof.report()
    assert rows[0]["target"].endswith("Thing.method")   # ranked by total
    assert rows[0]["calls"] == 1
    assert rows[1]["calls"] == 2
    assert rows[1]["max_us"] == 2000.0


def test_report_top_limits():
    prof = EngineProfiler()
    prof.record(a_callback, 0.001)
    prof.record(Thing().method, 0.002)
    assert len(prof.report(top=1)) == 1
    assert "target" in format_profile(prof.report())


def test_engine_dispatch_feeds_profiler():
    ticks = iter(range(100))
    prof = EngineProfiler(clock=lambda: float(next(ticks)))
    engine = ProfiledEngine(prof)
    calls = []
    engine.schedule(1.0, calls.append, 1)
    engine.schedule(2.0, calls.append, 2).cancel()
    engine.schedule(3.0, a_callback)
    engine.run()
    assert calls == [1] and engine.now == 3.0
    # One row per live event, each timed across exactly its own step.
    assert sorted((row["target"].rsplit(".", 1)[-1], row["calls"]) for row in prof.report()) == [
        ("a_callback", 1), ("append", 1),
    ]
    assert prof.total_seconds == 2.0
    assert not engine.step()


def test_engine_without_profiler_has_none():
    assert not hasattr(Engine(), "profiler")
    assert type(run_fig1(0).network.engine) is Engine
    assert type(run_fig1(0, obs=make_obs()).network.engine) is Engine


def test_profiled_campaign_signs_the_same_and_counts_every_event():
    """Chaos smoke (reliable control, so timers are cancelled): the
    profiled run signs like the plain one, and the profiler saw every
    event the engine processed, once."""
    campaign = load_campaign_file(os.path.join(REPO, "examples", "chaos_smoke.json"))
    obs = make_obs(profile=True)
    profiled = run_campaign(campaign, obs=obs)
    assert profiled.trace_signature == run_campaign(campaign).trace_signature
    calls = sum(row["calls"] for row in obs.profiler.report())
    assert calls == profiled.events_processed > 0

