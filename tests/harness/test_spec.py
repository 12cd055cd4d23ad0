"""Unit tests for the declarative experiment specs."""

import json

import pytest

from repro.harness.spec import (
    SpecError,
    build_scenario,
    build_topology,
    run_spec,
    run_spec_file,
)


def basic_spec():
    return {
        "topology": {"name": "ring", "n": 6, "latency_ms": 1.0},
        "controller": "n0",
        "system": "p4update",
        "seed": 3,
        "flows": [
            {
                "src": "n0", "dst": "n3", "size": 2.0,
                "old_path": ["n0", "n1", "n2", "n3"],
                "new_path": ["n0", "n5", "n4", "n3"],
            }
        ],
    }


def test_build_builtin_topologies():
    assert build_topology({"name": "b4"}).num_nodes() == 12
    assert build_topology({"name": "fattree", "k": 4}).num_nodes() == 20
    assert build_topology({"name": "ring", "n": 5}).num_nodes() == 5


def test_unknown_topology_rejected():
    with pytest.raises(SpecError):
        build_topology({"name": "not-a-topology"})
    with pytest.raises(SpecError):
        build_topology({})


@pytest.mark.parametrize(
    "topology,unread",
    [
        ({"name": "b4", "n": 6}, "['n']"),
        ({"name": "fattree", "k": 4, "latency_ms": 2.0}, "['latency_ms']"),
        ({"name": "ring", "k": 4}, "['k']"),
        ({"name": "chinanet", "k": 2, "n": 3, "latency_ms": 1.0}, "['k', 'latency_ms', 'n']"),
    ],
    ids=["n-on-b4", "latency-on-fattree", "k-on-ring", "all-on-chinanet"],
)
def test_a_field_the_topology_does_not_read_is_a_spec_error(topology, unread):
    name = topology["name"]
    with pytest.raises(SpecError) as raised:
        build_topology(topology)
    assert str(raised.value) == f"topology {name!r} does not read field(s) {unread}"
    spec = dict(basic_spec(), topology=topology)
    with pytest.raises(SpecError, match=r"does not read field\(s\)"):
        run_spec(spec)


def test_build_scenario_resolves_paths():
    spec = basic_spec()
    spec["flows"][0]["old_path"] = "shortest"
    spec["flows"][0]["new_path"] = "second-shortest"
    scenario = build_scenario(spec)
    flow = scenario.flows[0]
    assert flow.old_path[0] == "n0" and flow.old_path[-1] == "n3"
    assert flow.new_path != flow.old_path


def test_k_shortest_path_spec():
    spec = basic_spec()
    spec["flows"][0]["new_path"] = "k-shortest:2"
    scenario = build_scenario(spec)
    assert scenario.flows[0].new_path[-1] == "n3"


def test_bad_path_spec_rejected():
    spec = basic_spec()
    spec["flows"][0]["new_path"] = "scenic-route"
    with pytest.raises(SpecError):
        build_scenario(spec)


def test_missing_flows_rejected():
    with pytest.raises(SpecError):
        build_scenario({"topology": {"name": "b4"}})


def test_missing_flow_endpoint_rejected():
    spec = basic_spec()
    del spec["flows"][0]["dst"]
    with pytest.raises(SpecError):
        build_scenario(spec)


def test_misspelled_fields_are_spec_errors_naming_each(tmp_path, capsys):
    spec = basic_spec()
    spec["systm"] = spec.pop("system")
    spec["congestion_awar"] = False
    spec["topology"]["latency"] = 2.0
    spec["flows"][0]["sise"] = spec["flows"][0].pop("size")
    message = (
        "unknown spec field(s) ['congestion_awar', 'systm']; "
        "unknown topology field(s) ['latency']; "
        "unknown flow #0 field(s) ['sise']"
    )
    with pytest.raises(SpecError) as raised:
        run_spec(spec)
    assert str(raised.value) == message

    from repro.harness.cli import main

    path = tmp_path / "typo.json"
    path.write_text(json.dumps(spec))
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err.endswith(f": {message}\n")


def test_run_spec_end_to_end():
    result = run_spec(basic_spec())
    assert result.completed
    assert result.consistency_ok
    assert result.system == "p4update"


def test_run_spec_file(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(basic_spec()))
    result = run_spec_file(str(path))
    assert result.completed


def test_cli_run_command(tmp_path, capsys):
    from repro.harness.cli import main

    path = tmp_path / "exp.json"
    path.write_text(json.dumps(basic_spec()))
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "completed:  True" in out


def test_spec_with_dionysus_delays():
    spec = basic_spec()
    spec["dionysus_install_delays"] = True
    result = run_spec(spec)
    assert result.completed
    assert result.total_update_time_ms > 50.0   # exp(100) installs dominate


# -- bad path specs are SpecErrors, not tracebacks --------------------------------

BAD_FLOW_EDITS = {
    "k-shortest:0": {"new_path": "k-shortest:0"},
    "k-shortest:-1": {"new_path": "k-shortest:-1"},
    "k-shortest:x": {"new_path": "k-shortest:x"},
    "unknown endpoint": {"dst": "nowhere", "new_path": "second-shortest"},
    "src == dst": {"dst": "n0", "new_path": "k-shortest:2"},
}


@pytest.mark.parametrize("case", sorted(BAD_FLOW_EDITS))
def test_bad_named_path_is_a_spec_error_naming_the_flow(case):
    spec = basic_spec()
    spec["flows"][0].update(BAD_FLOW_EDITS[case])
    with pytest.raises(SpecError, match=r"flow #0 new: "):
        build_scenario(spec)


def test_too_few_paths_is_still_a_spec_error():
    spec = basic_spec()
    spec["flows"][0]["new_path"] = "k-shortest:3"     # a ring has two
    with pytest.raises(SpecError, match="fewer than 3 paths"):
        build_scenario(spec)


@pytest.mark.parametrize(
    "edit",
    [
        {"flows": [{"src": "n0", "dst": "n3", "new_path": "k-shortest:0"}]},
        {"flows": [{"src": "n0", "dst": "nowhere"}]},
        {"topology": {"name": "not-a-topology"}},
    ],
    ids=["bad-k", "unknown-endpoint", "unknown-topology"],
)
def test_cli_run_reports_a_bad_spec_on_one_line(tmp_path, capsys, edit):
    from repro.harness.cli import main

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(basic_spec(), **edit)))
    assert main(["run", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot load spec {str(path)!r}: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_cli_run_reports_a_missing_or_malformed_file(tmp_path, capsys):
    from repro.harness.cli import main

    assert main(["run", str(tmp_path / "absent.json")]) == 1
    (tmp_path / "torn.json").write_text('{"topology": ')
    assert main(["run", str(tmp_path / "torn.json")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("error: cannot load spec ") for line in lines)
