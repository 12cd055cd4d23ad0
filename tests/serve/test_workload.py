"""Flow population and arrival-draw properties."""

import json
import pathlib

import numpy as np
import pytest

from repro.chaos.runner import TOPOLOGIES
from repro.serve.workload import (
    build_flow_population,
    closed_loop_pick,
    draw_open_arrival,
    flow_cdf,
    flow_weights,
)

PINNED_SESSIONS = pathlib.Path(__file__).with_name("pinned_sessions.json")


def _rng(seed=0):
    return np.random.default_rng(seed)


def test_population_flows_are_reroutable_and_distinct():
    topo = TOPOLOGIES["b4"]()
    population = build_flow_population(topo, 8, _rng())
    assert len(population) == 8
    assert len({f.flow_id for f in population}) == 8
    for service_flow in population:
        assert service_flow.primary != service_flow.alternate
        assert service_flow.primary[0] == service_flow.src
        assert service_flow.primary[-1] == service_flow.dst
        assert service_flow.alternate[0] == service_flow.src
        assert service_flow.alternate[-1] == service_flow.dst
        assert service_flow.size > 0


def test_population_same_seed_identical():
    topo = TOPOLOGIES["b4"]()
    p1 = build_flow_population(topo, 8, _rng(42))
    p2 = build_flow_population(topo, 8, _rng(42))
    assert p1 == p2


def test_population_different_seed_differs():
    topo = TOPOLOGIES["b4"]()
    p1 = build_flow_population(topo, 8, _rng(1))
    p2 = build_flow_population(topo, 8, _rng(2))
    assert p1 != p2


def test_population_too_small_topology_raises():
    topo = TOPOLOGIES["fig1"]()
    with pytest.raises(ValueError, match="reroutable flows"):
        build_flow_population(topo, 1000, _rng())


def test_flow_weights_normalised():
    topo = TOPOLOGIES["b4"]()
    population = build_flow_population(topo, 8, _rng())
    weights = flow_weights(population)
    assert weights.shape == (8,)
    assert float(weights.sum()) == pytest.approx(1.0)
    assert all(w > 0 for w in weights)


def _arrival_inputs(flows):
    population = build_flow_population(TOPOLOGIES["b4"](), flows, _rng())
    return np.arange(len(population)), flow_weights(population)


def test_draw_open_arrival_seeded_and_matches_recorded_stream():
    _, weights = _arrival_inputs(8)
    rng, twin = _rng(7), _rng(7)
    cdf = flow_cdf(weights)
    head = [draw_open_arrival(rng, 100.0, cdf) for _ in range(50)]
    assert head == [draw_open_arrival(twin, 100.0, cdf) for _ in range(50)]
    for gap_ms, index in head:
        assert gap_ms >= 0
        assert 0 <= index < 8
    assert np.mean([g for g, _ in head]) == pytest.approx(10.0, rel=0.6)  # 100/s
    # The generator this function replaced, recorded at the commit that
    # still had it: same population, same rng seed, same rate.
    recorded = json.loads(PINNED_SESSIONS.read_text())["open_arrivals"]
    assert [list(pair) for pair in head] == recorded


def test_draw_open_arrival_spends_exactly_two_variates():
    indices, weights = _arrival_inputs(4)
    rng, by_hand = _rng(11), _rng(11)
    cdf = flow_cdf(weights)
    for _ in range(17):
        gap_ms, index = draw_open_arrival(rng, 50.0, cdf)
        assert gap_ms == float(by_hand.exponential(1000.0 / 50.0))
        assert index == int(by_hand.choice(indices, p=weights))
    assert rng.bit_generator.state == by_hand.bit_generator.state


def test_draw_open_arrival_rejects_zero_rate():
    _, weights = _arrival_inputs(4)
    with pytest.raises(ValueError):
        draw_open_arrival(_rng(), 0.0, flow_cdf(weights))


def test_closed_loop_pick_in_range_and_seeded():
    _, weights = _arrival_inputs(8)
    cdf = flow_cdf(weights)
    picks = [closed_loop_pick(_rng(3), cdf) for _ in range(5)]
    assert len(set(picks)) == 1  # fresh same-seed rng -> same pick
    assert all(0 <= p < 8 for p in picks)


def _random_weights(n):
    raw = _rng(n).exponential(1.0, size=n)
    return raw / raw.sum()


def _population_weights(topology, flows):
    return flow_weights(build_flow_population(TOPOLOGIES[topology](), flows, _rng()))


@pytest.mark.parametrize(
    "make_weights",
    [
        pytest.param(lambda: _random_weights(1), id="1-flow"),
        pytest.param(lambda: _random_weights(4), id="4-flows"),
        pytest.param(lambda: _random_weights(8), id="8-flows"),
        pytest.param(lambda: _random_weights(100), id="100-flows"),
        pytest.param(lambda: np.array([0.25, 0.0, 0.5, 0.25]), id="zero-weight"),
        pytest.param(lambda: np.array([0.0, 0.5, 0.5, 0.0]), id="zero-weight-ends"),
        pytest.param(lambda: _population_weights("b4", 8), id="b4-gravity"),
        pytest.param(lambda: _population_weights("chinanet", 100), id="chinanet-gravity"),
    ],
)
def test_pick_draws_what_choice_drew(make_weights):
    """The cdf bisect is ``Generator.choice(p=)`` minus its per-call
    validation and cumsum: same index from the same single double, so
    every pinned arrival stream and checkpoint resume is unchanged."""
    weights = make_weights()
    indices = np.arange(len(weights))
    cdf = flow_cdf(weights)
    rng, twin = _rng(5), _rng(5)
    for _ in range(10_000):
        assert closed_loop_pick(rng, cdf) == int(twin.choice(indices, p=weights))
    assert rng.bit_generator.state == twin.bit_generator.state
