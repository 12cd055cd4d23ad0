"""A serve spec's topology events are parsed and checked against its
topology at load time: a bad event is a ``ServeSpecError`` (and a
non-zero ``serve validate``), never a mid-run ``KeyError``."""

import json

import pytest

from repro.harness.cli import main
from repro.serve.spec import ServeSpecError, load_serve_spec

BASE = {"name": "ev", "topology": "b4", "flows": 4, "requests": 5}

BAD_EVENTS = {
    "unknown node": (
        {"time_ms": 10.0, "kind": "link_down", "node_a": "nowhere",
         "node_b": "dublin-ie"},
        "node_a='nowhere' is not a node",
    ),
    "unknown field": (
        {"time_ms": 10.0, "kind": "switch_crash", "node_a": "dublin-ie",
         "blast_radius": 3},
        "unexpected keyword argument 'blast_radius'",
    ),
    "unknown kind": (
        {"time_ms": 10.0, "kind": "meteor", "node_a": "dublin-ie"},
        "unknown topology event kind 'meteor'",
    ),
    # Both nodes exist on b4; there is no link between them.
    "non-adjacent link": (
        {"time_ms": 10.0, "kind": "link_down", "node_a": "atlanta-ga",
         "node_b": "dalles-or"},
        "no link between 'atlanta-ga' and 'dalles-or'",
    ),
    "not an object": ("link_down", "event must be an object"),
}


@pytest.mark.parametrize("case", BAD_EVENTS)
def test_bad_event_is_a_load_time_spec_error(case):
    event, message = BAD_EVENTS[case]
    with pytest.raises(ServeSpecError) as excinfo:
        load_serve_spec(dict(BASE, events=[event]))
    assert message in str(excinfo.value)


def test_good_events_parse_to_topo_events():
    spec = load_serve_spec(
        dict(
            BASE,
            events=[
                {"time_ms": 10.0, "kind": "link_down",
                 "node_a": "dublin-ie", "node_b": "lenoir-nc"},
                {"time_ms": 20.0, "kind": "controller_down"},
            ],
        )
    )
    down, outage = spec.topo_events()
    assert (down.kind, down.node_a, down.node_b) == (
        "link_down", "dublin-ie", "lenoir-nc"
    )
    assert outage.kind == "controller_down"
    # The spec document itself is untouched (spec hashes do not move).
    assert spec.to_dict()["events"][1] == {"time_ms": 20.0, "kind": "controller_down"}


@pytest.mark.parametrize("case", ["unknown node", "non-adjacent link"])
def test_serve_validate_exits_non_zero(case, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(BASE, events=[BAD_EVENTS[case][0]])))
    assert main(["serve", "validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert "is valid" not in captured.out
    assert BAD_EVENTS[case][1] in captured.err
