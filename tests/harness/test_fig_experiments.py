"""Tests for the §4.1 (Fig. 2) and §4.2 (Fig. 4) demonstrations."""

import pytest

from repro.harness.fig_experiments import run_fig2, run_fig4
from repro.harness.scenarios import InconsistentUpdateScenario
from repro.params import DelayDistribution, SimParams


def fig2_params(seed=0):
    return SimParams(
        seed=seed,
        pipeline_delay=DelayDistribution.constant(0.2),
        rule_install_delay=DelayDistribution.constant(1.0),
        controller_service=DelayDistribution.constant(0.5),
    )


def test_fig2_ezsegway_loops_packets():
    """§4.1: under ez-Segway, packets received at v1 loop through
    {v1, v2, v3} during the delay window and some die of TTL expiry."""
    result = run_fig2("ezsegway", params=fig2_params())
    assert result.duplicates_at_v1, "expected looped packets at v1"
    assert result.ttl_losses > 0, "expected TTL-expired drops"
    assert result.loop_window_ms > 0
    assert result.consistency_violations > 0, "the checker must see the loop"


def test_fig2_p4update_never_loops():
    """§4.1: P4Update's local verification rejects the out-of-order
    update: every probe is received at v1 exactly once and none die."""
    result = run_fig2("p4update", params=fig2_params())
    assert result.duplicates_at_v1 == {}, "no packet may be seen twice at v1"
    assert result.ttl_losses == 0
    assert result.consistency_violations == 0


def test_fig2_p4update_delivers_everything():
    result = run_fig2("p4update", params=fig2_params())
    delivered = {o.seq for o in result.delivered_at_v4}
    assert len(delivered) == result.probes_sent


def test_fig2_ezsegway_loses_packets():
    result = run_fig2("ezsegway", params=fig2_params())
    delivered = {o.seq for o in result.delivered_at_v4}
    assert len(delivered) < result.probes_sent, "TTL losses must show at v4"


def test_fig2_rejects_unknown_system():
    with pytest.raises(ValueError):
        run_fig2("central")


def test_fig2_scenario_knobs():
    scenario = InconsistentUpdateScenario(b_delay_ms=150.0, probe_rate_pps=250.0)
    result = run_fig2("ezsegway", scenario=scenario, params=fig2_params())
    assert result.probes_sent > 100  # 250 pps over the longer window


# -- Fig. 4 -----------------------------------------------------------------

def fig4_params(seed=0):
    return SimParams(seed=seed).with_dionysus_install_delay()


def test_fig4_p4update_fast_forwards():
    result = run_fig4("p4update", params=fig4_params())
    assert result.completed
    assert result.consistency_violations == 0
    assert result.u3_completion_ms > 0


def test_fig4_ezsegway_serializes():
    result = run_fig4("ezsegway", params=fig4_params())
    assert result.completed
    assert result.consistency_violations == 0


def test_fig4_p4update_faster_than_ezsegway():
    """§4.2: P4Update skips ahead to U3 while ez-Segway completes U2
    first — 'about 4x faster' in the paper; we assert a clear win."""
    import numpy as np

    p4, ez = [], []
    for seed in range(10):
        p4.append(run_fig4("p4update", params=fig4_params(seed)).u3_completion_ms)
        ez.append(run_fig4("ezsegway", params=fig4_params(seed)).u3_completion_ms)
    assert np.mean(p4) < np.mean(ez) / 2.0, (np.mean(p4), np.mean(ez))


def test_fig4_rejects_unknown_system():
    with pytest.raises(ValueError):
        run_fig4("central")


def test_fig4_forced_layer_names_run_that_layer():
    """``p4update-sl`` / ``p4update-dl`` pass their layer to both
    updates; they used to run the auto rule under the requested label."""
    times = {
        system: run_fig4(system, params=fig4_params()).u3_completion_ms
        for system in ("p4update", "p4update-sl", "p4update-dl")
    }
    assert len(set(times.values())) == 3, times


def test_fig2_is_single_layer_by_design():
    auto = run_fig2("p4update", params=fig2_params())
    forced = run_fig2("p4update-sl", params=fig2_params())
    assert forced.system == "p4update-sl"
    assert forced.received_at_v1 == auto.received_at_v1
    with pytest.raises(ValueError, match="single-layer"):
        run_fig2("p4update-dl")
