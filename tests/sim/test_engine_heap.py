"""The engine's ``(time, seq, event)`` heap against a sort.

Random ``schedule`` / ``schedule_at`` / ``Event.cancel`` / ``step`` /
``run(until=)`` sequences, with delays from a small set so equal-time
ties are the common case, must fire in exactly the order a reference
that re-sorts ``(time, seq)`` on every step fires them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine


class Log:
    """Callback target owning the engine under test."""

    def __init__(self):
        self.engine = Engine()
        self.fired = []
        self.handles = []          # every Event, in scheduling order

    def schedule(self, method, delay, tag, children):
        when = delay if method == "schedule" else self.engine.now + delay
        schedule = getattr(self.engine, method)
        self.handles.append(schedule(when, self.fire, tag, children))

    def fire(self, tag, children):
        self.fired.append((self.engine.now, tag))
        for i, delay in enumerate(children):
            self.schedule("schedule", delay, f"{tag}.{i}", ())


class SortingReference:
    """What the engine must do, with no heap: sort, take the first."""

    def __init__(self):
        self.now = 0.0
        self.processed = 0
        self.fired = []
        self.entries = []          # [time, seq, tag, children, state]

    def schedule(self, delay, tag, children):
        self.entries.append([self.now + delay, len(self.entries), tag, children, "live"])

    def cancel(self, index):
        if self.entries[index][4] == "live":
            self.entries[index][4] = "cancelled"

    def live(self):
        return sorted(e for e in self.entries if e[4] == "live")

    def step(self):
        live = self.live()
        if not live:
            return False
        head = live[0]
        head[4] = "fired"
        self.now = head[0]
        self.processed += 1
        self.fired.append((self.now, head[2]))
        for i, delay in enumerate(head[3]):
            self.schedule(delay, f"{head[2]}.{i}", ())
        return True

    def run(self, until=None):
        while True:
            live = self.live()
            if not live:
                return
            if until is not None and live[0][0] > until:
                self.now = until
                return
            self.step()


def assert_agree(log, reference):
    engine = log.engine
    live = reference.live()
    assert log.fired == reference.fired
    assert engine.now == reference.now
    assert engine.processed_events == reference.processed
    assert sum(not event.cancelled for _, _, event in engine._queue) == len(live)
    head = min((when for when, _, event in engine._queue if not event.cancelled), default=None)
    assert head == (live[0][0] if live else None)


DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 4.0])
SCHEDULE = st.tuples(
    st.sampled_from(["schedule", "schedule_at"]),
    DELAYS,
    st.lists(DELAYS, max_size=2).map(tuple),
)
OPS = st.lists(
    st.one_of(
        SCHEDULE,
        SCHEDULE,
        st.tuples(st.just("cancel"), st.integers(0, 10_000)),
        st.tuples(st.just("run"), st.none() | DELAYS),
        st.tuples(st.just("step")),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(OPS)
def test_engine_fires_in_time_then_insertion_order(ops):
    log, reference = Log(), SortingReference()
    for tag, op in enumerate(ops):
        if op[0] in ("schedule", "schedule_at"):
            method, delay, children = op
            log.schedule(method, delay, str(tag), children)
            reference.schedule(delay, str(tag), children)
        elif op[0] == "cancel" and log.handles:
            index = op[1] % len(log.handles)
            log.handles[index].cancel()
            reference.cancel(index)
        elif op[0] == "run":
            until = None if op[1] is None else reference.now + op[1]
            log.engine.run(until=until)
            reference.run(until=until)
        elif op[0] == "step":
            assert log.engine.step() == reference.step()
        assert_agree(log, reference)
    log.engine.run()
    reference.run()
    assert_agree(log, reference)
    assert not log.engine._queue and not log.engine.step()


def test_equal_time_events_never_compare_callbacks():
    """Ordering is decided by ``(time, seq)`` alone: callbacks and
    arguments that do not support ``<`` may tie on time."""
    engine = Engine()
    seen = []
    for tag in ({"a": 1}, {"b": 2}, object()):
        engine.schedule(1.0, seen.append, tag)
    engine.run()
    assert [type(tag) for tag in seen] == [dict, dict, object]
