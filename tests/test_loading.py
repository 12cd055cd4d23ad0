"""``repro.loading``: the JSON encoder and field check behind every
result document, and ``write_json_atomic``, the writer behind shard
caches, checkpoint manifests, run manifests and corpus cases."""

import enum
import json
import math
from dataclasses import dataclass

import pytest

from repro.loading import field_problems, plain, write_json_atomic


class _Colour(enum.IntEnum):
    RED = 1
    BLUE = 2


@dataclass(frozen=True)
class _Leaf:
    zeta: int
    alpha: _Colour
    edges: tuple = ()


@dataclass
class _Tree:
    name: str
    leaf: _Leaf
    tags: dict


def test_plain_keeps_field_order_and_converts_all_the_way_down():
    tree = _Tree("t", _Leaf(2, _Colour.BLUE, (("a", "b"), ("b", "c"))), {"k": (1,)})
    doc = plain(tree)
    assert doc == {
        "name": "t",
        "leaf": {"zeta": 2, "alpha": "BLUE", "edges": [["a", "b"], ["b", "c"]]},
        "tags": {"k": [1]},
    }
    assert list(doc) == ["name", "leaf", "tags"]
    assert list(doc["leaf"]) == ["zeta", "alpha", "edges"]
    assert json.loads(json.dumps(doc)) == doc


def test_plain_returns_a_copy():
    tags = {"k": [1]}
    tree = _Tree("t", _Leaf(1, _Colour.RED), tags)
    doc = plain(tree)
    doc["tags"]["k"].append(2)
    doc["tags"]["new"] = 3
    assert tree.tags == {"k": [1]}
    assert plain(tags) is not tags


def test_field_problems_names_each_missing_or_mistyped_field_in_order():
    fields = {"a": str, "b": int, "c": (int, type(None)), "d": dict}
    assert field_problems({"a": "x", "b": 1, "c": None, "d": {}}, fields) == []
    assert field_problems({"a": 1, "c": 2.5, "d": {}}, fields) == [
        "field 'a' has type int",
        "missing field 'b'",
        "field 'c' has type float",
    ]


@pytest.mark.parametrize("bad", [{"a": math.nan}, {"a": object()}], ids=["nan", "object"])
def test_a_refused_document_leaves_no_file_behind(tmp_path, bad):
    path = tmp_path / "x.json"
    write_json_atomic(str(path), {"a": 1})
    with pytest.raises((ValueError, TypeError)):
        write_json_atomic(str(path), bad)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.json"]
    assert json.loads(path.read_text()) == {"a": 1}


def test_a_failed_replace_leaves_no_temp_file_behind(tmp_path):
    target = tmp_path / "adir"
    target.mkdir()
    with pytest.raises(OSError):
        write_json_atomic(str(target), {"a": 1})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir"]
    assert list(target.iterdir()) == []


def test_bytes_are_sorted_indented_json_with_a_final_newline(tmp_path):
    path = tmp_path / "x.json"
    doc = {"b": [1, 2.5, {"d": None, "c": "é"}], "a": True}
    write_json_atomic(str(path), doc)
    assert path.read_text(encoding="utf-8") == (
        json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.json"]
