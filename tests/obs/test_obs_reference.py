"""Bound metric families, tuple-backed causal events and the
compare-and-assign ``Histogram.observe`` against the bodies they
replaced (``reference_registry.py``, ``reference_causal.py``): the same
metrics snapshot, causal DAGs and attribution rows, byte for byte, over
the reference scenarios run with ``make_obs(causal=True)``."""

import hashlib
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.obs.causal as causal_module
import repro.obs.context as context_module
from repro.obs import make_obs
from repro.obs.registry import Histogram
from tests.obs.reference_causal import ReferenceCausalTracker
from tests.obs.reference_registry import ReferenceMetricsRegistry, reference_observe
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
#: The reference swap shares today's hook sites, so this is what holds
#: *which* events each site counts.  The four baseline runs were pinned
#: while their ``rule_installs`` were still counted at the switch.
PINNED = {
    "serve_forced_sl": "60a5ed52ab29e62bd328a7a0df56f7d0a016ef486a773518f077f122cd1133c1",
    "serve_forced_dl": "5693d95151ec99a94a4d676cf3ef7abb15b3295f020d1d1e7eefb6878d565ddb",
    "serve_chaos_closed": "df93e2d3765426a30330922a1e40d628c45635c2ad7499120306e0b117b26b91",
    "faults_distance_skew": "201d0c5ab6d13db69c2c17750ad6a47c16429bc57d4d6ff94419012886ef3893",
    "two_phase_commit": "c72983c752982899296215c51b29be34910568055b5aaf926d184fb42603b6a6",
    "serve_ezsegway_open": "4247025b27cb08fd37a964c7296340378754db7216e33e0746474197bc4ac378",
    "serve_ezsegway_chaos_closed": "7d29eb460bb7aafb98f184f42f703a80fde133b21bd7ddf2c5f824fa26fac621",
    "serve_central_open": "e4dc0b32109e2add98635f5d58fa90cb62cf73a70f93b7546ae0560da3e6603d",
    "serve_central_chaos_closed": "c98470510acbe3329916ab2df5d92a4b0c81d5fe1ca1e51aa4565ec568a05f7e",
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
    monkeypatch.setattr(context_module, "MetricsRegistry", ReferenceMetricsRegistry)
    monkeypatch.setattr(causal_module, "CausalTracker", ReferenceCausalTracker)
    monkeypatch.setattr(Histogram, "observe", reference_observe)
    obs, reference = _observed(name)
    assert isinstance(obs.metrics, ReferenceMetricsRegistry)
    assert isinstance(obs.causal, ReferenceCausalTracker)
    assert stock["order"], "the scenario moved no metric"
    assert stock == reference
    assert _digest(stock) == PINNED[name]


def test_served_scenarios_export_causal_dags():
    obs, doc = _observed("serve_forced_dl")
    assert len(obs.causal.dags()) == 60
    assert json.loads(doc["rows"])[0]["segments"]


# -- Histogram.observe ------------------------------------------------------------

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
