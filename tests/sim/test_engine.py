"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Engine, EngineError


def test_clock_starts_at_zero():
    engine = Engine()
    assert engine.now == 0.0


def test_schedule_and_run_in_time_order():
    engine = Engine()
    seen = []
    engine.schedule(5.0, seen.append, "b")
    engine.schedule(1.0, seen.append, "a")
    engine.schedule(9.0, seen.append, "c")
    engine.run()
    assert seen == ["a", "b", "c"]
    assert engine.now == 9.0


def test_ties_break_by_insertion_order():
    engine = Engine()
    seen = []
    for tag in ("first", "second", "third"):
        engine.schedule(2.0, seen.append, tag)
    engine.run()
    assert seen == ["first", "second", "third"]


def test_zero_delay_runs_after_current_event():
    engine = Engine()
    seen = []

    def outer():
        engine.schedule(0.0, seen.append, "inner")
        seen.append("outer")

    engine.schedule(1.0, outer)
    engine.run()
    assert seen == ["outer", "inner"]


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(EngineError):
        engine.schedule(-0.1, lambda: None)


def test_cancel_skips_event():
    engine = Engine()
    seen = []
    event = engine.schedule(1.0, seen.append, "cancelled")
    engine.schedule(2.0, seen.append, "kept")
    event.cancel()
    engine.run()
    assert seen == ["kept"]


def test_run_until_horizon_stops_clock_at_horizon():
    engine = Engine()
    seen = []
    engine.schedule(1.0, seen.append, "early")
    engine.schedule(10.0, seen.append, "late")
    engine.run(until=5.0)
    assert seen == ["early"]
    assert engine.now == 5.0
    engine.run()
    assert seen == ["early", "late"]


def test_run_until_moves_the_clock_only_past_a_live_event():
    """``until`` advances the clock only when a live event lies beyond
    it; a queue that drains, or holds only cancelled events, leaves the
    clock at the last event fired."""
    engine = Engine()
    engine.schedule(1.0, lambda: None)
    engine.run(until=5.0)
    assert engine.now == 1.0
    engine.schedule(2.0, lambda: None).cancel()
    engine.run(until=5.0)
    assert engine.now == 1.0 and engine.processed_events == 1
    engine.schedule(9.0, lambda: None)
    engine.run(until=5.0)
    assert engine.now == 5.0 and engine.processed_events == 1


def test_step_fires_one_live_event():
    engine = Engine()
    seen = []
    engine.schedule(1.0, seen.append, "cancelled").cancel()
    for i in range(3):
        engine.schedule(float(i + 2), seen.append, i)
    assert engine.step() and seen == [0] and engine.now == 2.0
    assert engine.step() and engine.step() and seen == [0, 1, 2]
    assert not engine.step() and engine.processed_events == 3


def test_schedule_at_absolute_time():
    engine = Engine()
    seen = []
    engine.schedule_at(4.0, seen.append, "x")
    engine.run()
    assert engine.now == 4.0 and seen == ["x"]


def test_processed_events_counter():
    engine = Engine()
    for _ in range(4):
        engine.schedule(1.0, lambda: None)
    engine.run()
    assert engine.processed_events == 4


def test_callback_scheduling_cascade():
    """Events scheduled from callbacks keep the clock monotonic."""
    engine = Engine()
    times = []

    def tick(remaining):
        times.append(engine.now)
        if remaining:
            engine.schedule(2.5, tick, remaining - 1)

    engine.schedule(0.0, tick, 3)
    engine.run()
    assert times == [0.0, 2.5, 5.0, 7.5]
