"""Metric families: each labelled instrument is resolved once per run,
the null families store nothing, each session's families bind to its
own registry, and the spellings that share one store agree."""

import json

import pytest

from repro.obs.context import NULL_OBS, make_obs
from repro.obs.derived import DerivedMetrics
from repro.obs.registry import MetricsRegistry, NullRegistry
from repro.serve.service import ServiceSession, run_service
from repro.serve.spec import load_serve_spec
from tests.serve.test_pinned_sessions import EVENTS

#: ``serve_b4_8f``'s spec at 50 requests.
_B4 = {
    "name": "families", "topology": "b4", "seed": 0, "flows": 8,
    "requests": 50, "mode": "open", "arrival_rate_per_s": 3.0,
    "queue_depth": 16, "shed_policy": "park", "conflict_policy": "serialize",
    "horizon_ms": 1.0e9,
}


def _null_families():
    return [NullRegistry().family(kind, "any") for kind in ("counter", "gauge", "histogram")]


def test_each_instrument_is_resolved_once_per_run(monkeypatch):
    """41.4 canonical lookups per request when every event called
    ``counter(name, **labels)``; one per instrument with families."""
    calls = []
    resolve = MetricsRegistry._get

    def counting(self, factory, name, labels):
        calls.append(name)
        return resolve(self, factory, name, labels)

    monkeypatch.setattr(MetricsRegistry, "_get", counting)
    obs = make_obs(causal=True)
    result = run_service(load_serve_spec(_B4), obs=obs)
    assert result.outcome_counts == {"completed": 50}
    assert len(obs.metrics) > 50
    assert len(calls) == len(obs.metrics)


def test_an_obs_off_run_leaves_the_null_families_empty():
    result = run_service(load_serve_spec(_B4))
    assert result.outcome_counts == {"completed": 50}
    for family in _null_families():
        assert len(family) == 0
        assert family["anything", "at", "all"] is family[()]
        assert len(family) == 0
    with pytest.raises(TypeError, match="stores nothing"):
        _null_families()[0][("v1",)] = object()


def test_null_families_are_shared():
    families = _null_families()
    assert families == _null_families()
    assert all(a is b for a, b in zip(families, _null_families()))
    assert NULL_OBS.metrics.family("counter", "m", "node") is families[0]


def test_two_live_sessions_bind_their_families_to_their_own_registries():
    spec = load_serve_spec({
        "name": "two-sessions", "topology": "b4", "seed": 1, "flows": 10,
        "requests": 80, "horizon_ms": 12000.0, "events": EVENTS["flap"],
        "arrival_rate_per_s": 10.0,
        "params": {"controller_update_timeout_ms": 500.0},
    })

    def exports(obs):
        return (json.dumps(obs.snapshot()["metrics"]), json.dumps(obs.causal.dags()),
                json.dumps(obs.causal.attribution_rows()))

    whole = make_obs(causal=True)
    session = ServiceSession(spec, whole)
    session.wire()
    session.run()
    session.close()
    uninterrupted = exports(whole)

    # Two sessions alive in one process, run in turns: neither's
    # families may reach the other's registry.
    sessions = [ServiceSession(spec, make_obs(causal=True)) for _ in range(2)]
    for session in sessions:
        session.wire()
        session.deployment.run(until=spec.horizon_ms / 2)
        assert 0 < session._issued < spec.requests
    for session in sessions:
        registry = session.obs.metrics
        assert session.deployment.network._m_service_wait._registry is registry
        views = [
            callback for callback, _kinds in session.deployment.network.trace._subscribers
            if isinstance(callback, DerivedMetrics)
        ]
        assert len(views) == 1
        assert {
            family._registry
            for rows in views[0].routes.values() for family, _label, _skip in rows
        } == {registry}
    assert sessions[0].obs.metrics is not sessions[1].obs.metrics
    for session in sessions:
        session.run()
        session.close()
        assert exports(session.obs) == uninterrupted


def test_kwarg_order_does_not_split_an_instrument():
    registry = MetricsRegistry()
    a = registry.counter("messages_sent", node="v1", plane="data", type="unm")
    b = registry.counter("messages_sent", type="unm", node="v1", plane="data")
    c = registry.family("counter", "messages_sent", "plane", "type", "node")["data", "unm", "v1"]
    assert a is b is c
    a.inc()
    assert len(registry) == 1
    assert registry.value("messages_sent", plane="data", type="unm", node="v1") == 1
    # The labels keep the order of the first use, as before families.
    assert list(registry) == [
        ("messages_sent", {"node": "v1", "plane": "data", "type": "unm"}, a)
    ]


def test_a_family_under_another_kind_raises_the_registry_error():
    registry = MetricsRegistry()
    registry.counter("rule_installs", node="v1")
    gauges = registry.family("gauge", "rule_installs", "node")
    with pytest.raises(TypeError) as raised:
        gauges[("v1",)]
    assert str(raised.value) == "metric 'rule_installs' already registered as counter"
    assert len(gauges) == 0
    with pytest.raises(TypeError, match="already registered as counter"):
        registry.histogram("rule_installs", node="v1")


def test_families_are_memoised_and_lazy():
    registry = MetricsRegistry()
    family = registry.family("histogram", "update_duration_ms", "node")
    assert registry.family("histogram", "update_duration_ms", "node") is family
    assert registry.snapshot() == {} and len(registry) == 0
    family[("controller",)].observe(2.0)
    assert registry.histogram("update_duration_ms", node="controller") is family[("controller",)]
    with pytest.raises(ValueError):
        family["controller", "extra"]
