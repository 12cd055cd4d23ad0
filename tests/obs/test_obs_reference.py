"""Bound metric families, tuple-backed causal events and the
compare-and-assign ``Histogram.observe`` against what they replaced.

Over the reference scenarios run with ``make_obs(causal=True)``, the
metrics snapshot, causal DAGs and attribution rows must equal, byte for
byte, those of a run with the tracker of ``reference_causal.py`` and
``reference_observe`` swapped in, and must hash to the ``PINNED``
digests recorded before metric families existed (which is what holds
the registry).  ``reference_observe`` is ``Histogram.observe`` as it was
before compare-and-assign, checked on generated samples."""

import hashlib
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.obs.causal as causal_module
from repro.obs.context import make_obs
from repro.obs.registry import _LOG_BASE, Histogram
from tests.obs.reference_causal import ReferenceCausalTracker
from tests.reference_scenarios import BASELINE_SCENARIOS, SCENARIOS

#: Forced SL and DL, the closed loop with flaps and a controller outage,
#: fault models on both planes, and a 2PC update; then the open loop and
#: the chaos loop under ez-Segway and Central.
_RUNS = {**SCENARIOS, **BASELINE_SCENARIOS}
_OBSERVED = (
    "serve_forced_sl", "serve_forced_dl", "serve_chaos_closed",
    "faults_distance_skew", "two_phase_commit",
    *BASELINE_SCENARIOS,
)


#: sha256 of each scenario's exports as the hook sites produced them
#: before they bound families (the same under ``PYTHONHASHSEED`` 0 and 1).
#: The causal swap shares today's hook sites and registry, so this is
#: what holds *which* events each site counts and how the registry
#: resolves, orders and exports them.  The four baseline runs were pinned
#: while their ``rule_installs`` were still counted at the switch, and
#: re-pinned once when the baseline controllers began firing their own
#: completion callback where they record ``update_done`` (it used to come
#: from a trace subscriber that ran before the orchestrator's causal tap):
#: each completed request's DAG gained that ``update_done`` event, as
#: P4Update's DAGs always had; metrics and attribution rows did not move.
PINNED = {
    "serve_forced_sl": "60a5ed52ab29e62bd328a7a0df56f7d0a016ef486a773518f077f122cd1133c1",
    "serve_forced_dl": "5693d95151ec99a94a4d676cf3ef7abb15b3295f020d1d1e7eefb6878d565ddb",
    "serve_chaos_closed": "df93e2d3765426a30330922a1e40d628c45635c2ad7499120306e0b117b26b91",
    "faults_distance_skew": "201d0c5ab6d13db69c2c17750ad6a47c16429bc57d4d6ff94419012886ef3893",
    "two_phase_commit": "c72983c752982899296215c51b29be34910568055b5aaf926d184fb42603b6a6",
    "serve_ezsegway_open": "fd793ea30586e547dfa6e27c58f441c58e6c6665255aa86b0e1dd5650a4af28d",
    "serve_ezsegway_chaos_closed": "0f5be64b9b98259df849d62d6f65c20e754a3b28f4dfbe952cf0eadb543101fe",
    "serve_central_open": "f35db67c2f788ce5c0154514281e64cf0a767ebe2a318fed4e6018a08470d61f",
    "serve_central_chaos_closed": "7c7e3c549f4ae079d6fc8e867ee0d0986e84aed935ef6e7a926384d6133d35e5",
}


def _digest(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _observed(name):
    obs = make_obs(causal=True)
    _RUNS[name](obs)
    return obs, {
        "metrics": json.dumps(obs.snapshot()["metrics"]),
        "dags": json.dumps(obs.causal.dags()),
        "rows": json.dumps(obs.causal.attribution_rows()),
        "order": [(name, labels) for name, labels, _ in obs.metrics],
        "coverage": obs.coverage_keys(),
    }


@pytest.mark.parametrize("name", _OBSERVED)
def test_obs_exports_equal_the_reference(name, monkeypatch):
    _, stock = _observed(name)
    monkeypatch.setattr(causal_module, "CausalTracker", ReferenceCausalTracker)
    monkeypatch.setattr(Histogram, "observe", reference_observe)
    obs, reference = _observed(name)
    assert isinstance(obs.causal, ReferenceCausalTracker)
    assert stock["order"], "the scenario moved no metric"
    assert stock == reference
    assert _digest(stock) == PINNED[name]


def test_served_scenarios_export_causal_dags():
    obs, doc = _observed("serve_forced_dl")
    assert len(obs.causal.dags()) == 60
    assert json.loads(doc["rows"])[0]["segments"]


# -- Histogram.observe ------------------------------------------------------------


def reference_observe(self: Histogram, value: float) -> None:
    """``Histogram.observe`` before compare-and-assign, verbatim."""
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"non-finite histogram sample: {value}")
    self.count += 1
    self.total += value
    self.minimum = min(self.minimum, value)
    self.maximum = max(self.maximum, value)
    if value <= 0.0:
        self._zero += 1
        return
    idx = math.floor(math.log(value) / _LOG_BASE)
    self._buckets[idx] = self._buckets.get(idx, 0) + 1


_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308]),
    st.integers(min_value=-(2**53), max_value=2**53),
)


def _state(hist):
    # repr() tells -0.0 from 0.0.
    return repr((hist.count, hist.total, hist.minimum, hist.maximum,
                 hist._zero, sorted(hist._buckets.items())))


@given(st.lists(_FINITE, max_size=40))
@example([0.0, -0.0])
@example([-0.0, 0.0, 5e-324, -5e-324])
@example([1e308, 1e308])                 # total overflows to inf, as before
@settings(max_examples=500, deadline=None)
def test_observe_equals_the_reference(values):
    fast, reference = Histogram(), Histogram()
    for value in values:
        fast.observe(value)
        reference_observe(reference, value)
    assert _state(fast) == _state(reference)
    assert json.dumps(fast.snapshot()) == json.dumps(reference.snapshot())


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_samples_raise_the_reference_error(value):
    fast, reference = Histogram(), Histogram()
    with pytest.raises(ValueError) as got:
        fast.observe(value)
    with pytest.raises(ValueError) as want:
        reference_observe(reference, value)
    assert str(got.value) == str(want.value)
    assert _state(fast) == _state(reference) == _state(Histogram())
