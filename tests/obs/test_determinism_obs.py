"""The zero-overhead invariant: observability must never change the
simulation.  Obs-off and obs-on runs of the same seed produce the
bit-identical simulated trace, and the disabled context does no work.
"""

from repro.core.messages import UpdateType
from repro.harness.build import build_p4update_network
from repro.obs import NULL_OBS, Sampler, make_obs
from repro.params import SimParams
from repro.sim.engine import Engine
from repro.topo import fig1_topology
from repro.topo.synthetic import FIG1_NEW_PATH, FIG1_OLD_PATH
from repro.traffic.flows import Flow

from tests.sim.test_determinism import trace_signature


def run_fig1(seed: int, obs=None):
    dep = build_p4update_network(
        fig1_topology(),
        params=SimParams(seed=seed).with_dionysus_install_delay(),
        obs=obs,
    )
    flow = Flow.between("v0", "v7", size=1.0, old_path=list(FIG1_OLD_PATH))
    dep.install_flow(flow)
    dep.controller.update_flow(flow.flow_id, list(FIG1_NEW_PATH), UpdateType.DUAL)
    dep.run()
    return dep


def test_obs_on_equals_obs_off():
    baseline = trace_signature(run_fig1(7))
    instrumented = trace_signature(run_fig1(7, obs=make_obs()))
    assert baseline == instrumented


def test_profiling_does_not_change_the_trace():
    """Sampled runs, repeated until the sampler has fired, leave the
    trace of the plain run."""
    baseline = trace_signature(run_fig1(7))
    with Sampler() as sampler:
        while not sampler.counts:
            assert trace_signature(run_fig1(7, obs=make_obs())) == baseline


def test_obs_enabled_experiment_matches_disabled():
    import numpy as np

    from repro.harness.experiment import run_experiment
    from repro.harness.scenarios import multi_flow_scenario
    from repro.topo import b4_topology

    scenario1 = multi_flow_scenario(b4_topology(), np.random.default_rng(3))
    scenario2 = multi_flow_scenario(b4_topology(), np.random.default_rng(3))
    plain = run_experiment("p4update-sl", scenario1, params=SimParams(seed=3))
    instrumented = run_experiment(
        "p4update-sl", scenario2, params=SimParams(seed=3), obs=make_obs()
    )
    assert plain.total_update_time_ms == instrumented.total_update_time_ms
    assert plain.per_flow_ms == instrumented.per_flow_ms


def test_null_obs_is_the_default_and_inert():
    dep = run_fig1(0)
    assert dep.controller.obs is NULL_OBS
    for switch in dep.switches.values():
        assert switch.obs is NULL_OBS
    assert dep.network.obs is NULL_OBS
    assert not NULL_OBS.enabled
    # The disabled context captured nothing during the whole run.
    assert NULL_OBS.snapshot() == {"metrics": {}, "spans": []}
    assert type(dep.network.engine) is Engine


def test_null_obs_convenience_calls_are_noops():
    NULL_OBS.count("anything", node="x")
    NULL_OBS.observe("anything_ms", 4.2, node="x")
    assert NULL_OBS.snapshot() == {"metrics": {}, "spans": []}


def test_enabled_run_collects_protocol_metrics():
    obs = make_obs()
    dep = run_fig1(0, obs=obs)
    assert dep.controller.update_complete is not None
    metrics = obs.metrics
    assert metrics.total("uims_sent") == 8          # one UIM per Fig. 1 switch
    assert metrics.total("updates_completed") == 1
    assert metrics.total("messages_sent") > 0
    assert metrics.total("rule_installs") == 8
    snap = obs.snapshot()
    assert snap["metrics"]["messages_sent"]
