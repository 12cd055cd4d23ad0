"""``repro.loading.write_json_atomic``: the writer behind shard caches,
checkpoint manifests, run manifests and corpus cases."""

import json
import math

import pytest

from repro.loading import write_json_atomic


@pytest.mark.parametrize("bad", [{"a": math.nan}, {"a": object()}], ids=["nan", "object"])
def test_a_refused_document_leaves_no_file_behind(tmp_path, bad):
    path = tmp_path / "x.json"
    write_json_atomic(str(path), {"a": 1})
    with pytest.raises((ValueError, TypeError)):
        write_json_atomic(str(path), bad)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.json"]
    assert json.loads(path.read_text()) == {"a": 1}


def test_bytes_are_sorted_indented_json_with_a_final_newline(tmp_path):
    path = tmp_path / "x.json"
    doc = {"b": [1, 2.5, {"d": None, "c": "é"}], "a": True}
    write_json_atomic(str(path), doc)
    assert path.read_text(encoding="utf-8") == (
        json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.json"]
