"""The metrics that are pure counts of trace events
(``repro.obs.derived``): subscribed by ``ObsContext.bind`` only when
metrics are on, equal to a count over the trace the run recorded, kept
under a bounded trace ring, and invisible to the simulation."""

import json
import pathlib

from repro.chaos.campaign import load_campaign
from repro.chaos.runner import run_campaign
from repro.obs import make_obs
from repro.obs.derived import VIEWS, DerivedMetrics
from repro.serve.service import ServiceSession
from repro.serve.spec import load_serve_spec
from tests.obs.test_determinism_obs import run_fig1
from tests.obs.test_metric_table import emitted
from tests.reference_scenarios import _CHAOS_CLOSED, _SERVE

SMOKE = pathlib.Path(__file__).resolve().parents[2] / "examples" / "chaos_smoke.json"


def _views(network):
    return [
        callback for callback, _kinds in network.trace._subscribers
        if isinstance(callback, DerivedMetrics)
    ]


def _chaos_session(obs, **params):
    spec = load_serve_spec({**_SERVE, **_CHAOS_CLOSED, "params": {**_SERVE["params"], **params}})
    session = ServiceSession(spec, obs)
    session.wire()
    session.run()
    session.close()
    return session


def test_a_network_on_null_obs_has_no_derived_subscriber():
    assert _views(run_fig1(7).network) == []
    assert len(_views(run_fig1(7, obs=make_obs()).network)) == 1


#: (counter, trace kind) -> detail keys that keep an event out of it.
_SKIPPED = {
    ("rule_installs", "rule_change"): {"cleanup", "crash", "two_phase_flip"},
    ("messages_sent", "msg_drop"): {"reason", "dest"},
    ("messages_dropped", "msg_drop"): {"reason"},
}


def _label(label, event):
    if label == "plane":
        data_key = "dest" if event.kind == "msg_drop" else "port"
        return "data" if data_key in event.detail else "control"
    return {"kind": event.kind, "node": event.node}.get(label) or event.detail[label]


def test_each_view_equals_a_count_over_the_trace():
    obs = make_obs()
    trace = _chaos_session(obs).deployment.network.trace
    for name, label_names, kinds in VIEWS:
        want: dict = {}
        for event in trace.of_kind(*kinds):
            if _SKIPPED.get((name, event.kind), set()) & set(event.detail):
                continue
            value = tuple(_label(label, event) for label in label_names)
            want[value] = want.get(value, 0.0) + 1.0
        got = {
            tuple(labels[label] for label in label_names): cell.value
            for metric, labels, cell in obs.metrics if metric == name
        }
        assert got == want, name
    assert obs.metrics.total("topo_events") == 8
    assert obs.metrics.total("flows_parked") > 0
    assert obs.metrics.total("messages_received") > 0


def test_a_bounded_trace_ring_keeps_every_count():
    whole, ring = make_obs(), make_obs()
    _chaos_session(whole)
    trace = _chaos_session(ring, trace_max_events=64).deployment.network.trace
    assert trace.dropped_events > 0
    assert ring.snapshot()["metrics"] == whole.snapshot()["metrics"]


def test_the_chaos_smoke_campaign_signs_equal_with_obs_on_and_off():
    campaign = load_campaign(json.loads(SMOKE.read_text()))
    obs = make_obs()
    on = run_campaign(campaign, obs=obs)
    assert on.trace_signature == run_campaign(campaign).trace_signature
    assert obs.metrics.value("topo_events", kind="link_down") == 1.0
    assert obs.metrics.total("rule_installs") > 0


def test_only_the_view_emits_a_derived_metric():
    sites = emitted()
    for name, labels, _kinds in VIEWS:
        assert sites[name] == {("counter", labels, "obs.derived")}
