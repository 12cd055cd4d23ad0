"""Engine profiler attribution and report shape."""

from repro.obs.profiler import EngineProfiler, _target_name
from repro.sim.engine import Engine


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
    assert "target" in prof.format_report()


def test_engine_dispatch_feeds_profiler():
    engine = Engine()
    calls = []
    engine.schedule(1.0, lambda: calls.append(1))
    prof = EngineProfiler()
    engine.set_profiler(prof)
    engine.run()
    assert calls == [1]
    assert sum(row["calls"] for row in prof.report()) == 1
    assert prof.total_seconds >= 0.0


def test_engine_without_profiler_has_none():
    engine = Engine()
    assert engine.profiler is None
