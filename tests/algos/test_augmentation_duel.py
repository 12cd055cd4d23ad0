"""The slack-deadlock suite: augmentation resolves exactly the pairs
capacity-preserving strategies park on (and nothing when the helper
corridor has no spare capacity)."""

from repro.algos.duel import run_duel
from repro.analysis.advgen import generate_slack_pairs


def test_slack_pairs_deterministic():
    a = generate_slack_pairs(3, count=2, slack=0.25)
    b = generate_slack_pairs(3, count=2, slack=0.25)
    assert [(p.name, p.edges, p.flows) for p in a] == [
        (p.name, p.edges, p.flows) for p in b
    ]


def test_slack_parameterizes_helper_capacity():
    for slack in (-0.5, 0.0, 0.25):
        for pair in generate_slack_pairs(0, count=2, slack=slack):
            caps = {(a, b): cap for a, b, cap in pair.edges}
            s, h, t = pair.helper_path
            expected = max(0.05, round(pair.size + slack, 2))
            assert caps[(s, h)] == caps[(h, t)] == expected
            assert pair.augmentable == (slack >= 0)


def test_slack_pair_flow_ids_fit_the_packet_header():
    # The UNM/probe headers carry a 16-bit flow_id field; wider ids
    # would truncate in flight and never match their pending UIM.
    for pair in generate_slack_pairs(7, count=4):
        for flow_id, _, _ in pair.flows:
            assert 0 < flow_id < 2**16


def test_slack_pair_topology_is_runnable():
    pair = generate_slack_pairs(0, count=1)[0]
    topo = pair.topology()
    flows = pair.flow_objects()
    assert len(flows) == 2
    for flow in flows:
        for path in (flow.old_path, flow.new_path):
            for a, b in zip(path, path[1:]):
                assert b in topo.adj[a]


def test_augmentation_resolves_what_baselines_park():
    doc = run_duel(
        seed=0, count=2, slack=0.25,
        strategies=["p4update", "central", "augmented"],
    )
    summary = doc["summary"]
    assert summary["violations"] == 0
    assert summary["pairs"] == 2
    # Every pair: augmented completes both flows, every capacity-
    # preserving strategy deadlocks (parks or never finishes).
    assert summary["augmented_only_completions"] == 2
    for row in doc["cases"]:
        assert row["augmented_only"]
        augmented = row["results"]["augmented"]
        assert all(o == "completed" for o in augmented["outcomes"].values())


def test_every_registered_baseline_parks_on_the_suite():
    doc = run_duel(seed=1, count=1, slack=0.25)  # all strategies
    summary = doc["summary"]
    assert summary["violations"] == 0
    assert summary["augmented_only_completions"] == summary["pairs"] == 1


def test_negative_slack_is_unresolvable_for_everyone():
    doc = run_duel(
        seed=0, count=1, slack=-0.5, strategies=["p4update", "augmented"]
    )
    summary = doc["summary"]
    assert summary["violations"] == 0
    assert summary["augmented_only_completions"] == 0
    for row in doc["cases"]:
        for result in row["results"].values():
            assert any(o != "completed" for o in result["outcomes"].values())
