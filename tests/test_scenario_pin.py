"""The scenario pin (``tests/reference_scenarios.py``) sees what
``capture()`` returns: every top-level key, a single register cell, a
single trace detail value, and the difference between a tuple and a list
or an int and a float each move it; the order a dict was filled in does
not; and a value with no canonical form is refused by name."""

import copy

import pytest

from tests.reference_scenarios import outcome_pin, stock_outcome

NAME = "destination_tree"          # small, and returns an extra key


def _outcome():
    return copy.deepcopy(stock_outcome(NAME))


def _nudged(value):
    """``value`` with its first scalar changed (an empty container filled)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "'"
    if isinstance(value, dict):
        if not value:
            return {"": None}
        key = next(iter(value))
        return {**value, key: _nudged(value[key])}
    if not value:
        return type(value)([None])
    if hasattr(value, "_replace"):
        return value._replace(**{value._fields[0]: _nudged(value[0])})
    return type(value)([_nudged(value[0]), *value[1:]])


def test_a_copy_pins_like_the_original():
    assert outcome_pin(NAME, _outcome()) == outcome_pin(NAME, stock_outcome(NAME))


@pytest.mark.parametrize("key", list(stock_outcome(NAME)))
def test_every_top_level_key_moves_the_pin(key):
    outcome = _outcome()
    outcome[key] = _nudged(outcome[key])
    assert outcome_pin(NAME, outcome) != outcome_pin(NAME, stock_outcome(NAME))


def test_one_register_cell_moves_the_pin():
    outcome = _outcome()
    cells = outcome["switches"]["dst"]["registers"]["pend_version"]
    cells[0] += 1
    assert outcome_pin(NAME, outcome)["state"] != outcome_pin(NAME, stock_outcome(NAME))["state"]


def test_one_trace_detail_value_moves_the_pin():
    outcome = _outcome()
    trace = outcome["trace"]
    position, event = next((i, e) for i, e in enumerate(trace) if e.detail)
    key = next(iter(event.detail))
    trace[position] = event._replace(detail={**event.detail, key: _nudged(event.detail[key])})
    assert outcome_pin(NAME, outcome)["trace"] != outcome_pin(NAME, stock_outcome(NAME))["trace"]


def test_a_tuple_turned_into_a_list_moves_the_pin():
    outcome = _outcome()
    switch = outcome["switches"]["dst"]
    switch["packets"] = list(switch["packets"])
    assert outcome_pin(NAME, outcome)["state"] != outcome_pin(NAME, stock_outcome(NAME))["state"]


def test_an_int_turned_into_a_float_moves_the_pin():
    outcome = _outcome()
    outcome["events_processed"] = float(outcome["events_processed"])
    assert outcome_pin(NAME, outcome)["state"] != outcome_pin(NAME, stock_outcome(NAME))["state"]


def test_dict_fill_order_leaves_the_pin():
    outcome = _outcome()
    outcome["switches"] = dict(reversed(outcome["switches"].items()))
    assert outcome_pin(NAME, outcome) == outcome_pin(NAME, stock_outcome(NAME))


@pytest.mark.parametrize("value", [object(), {1, 2}, [b"bytes"]])
def test_a_value_with_no_canonical_form_is_refused_by_name(value):
    outcome = _outcome()
    outcome["extra"] = value
    with pytest.raises(TypeError, match="scenario 'destination_tree', key 'extra'"):
        outcome_pin(NAME, outcome)
