"""``repro.params.check_overrides``: every spec that overrides
``SimParams`` fields refuses one it may not override, by name."""

import json
from pathlib import Path

import pytest

from repro.ops.spec import SessionSpecError, load_session_spec
from repro.serve.spec import ServeSpecError, load_serve_spec
from repro.sweep.spec import SweepSpecError, load_sweep_spec

EXAMPLES = Path(__file__).parent.parent / "examples"


def _with_param(name, embedded=None):
    """The example spec ``name`` with ``trace_max_events`` in its
    ``params``, or in those of its ``embedded`` spec."""
    doc = json.loads((EXAMPLES / name).read_text())
    target = doc[embedded] if embedded else doc
    target.setdefault("params", {})["trace_max_events"] = 50
    return doc


@pytest.mark.parametrize("doc, load, error", [
    (_with_param("serve_smoke.json"), load_serve_spec, ServeSpecError),
    (_with_param("ops_drain.json", "serve"), load_session_spec, SessionSpecError),
    (_with_param("sweep_smoke.json"), load_sweep_spec, SweepSpecError),
], ids=["serve", "session", "experiment-sweep"])
def test_a_spec_naming_a_removed_field_is_refused_by_name(doc, load, error):
    with pytest.raises(error, match="non-overridable.*trace_max_events") as refused:
        load(doc)
    assert type(refused.value) is error
