"""``scripts/behaviour.py``: its fixed list and ``--compare`` on
hand-written outputs (running the list itself takes about a CPU minute
and is not a tier-1 test)."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def behaviour():
    spec = importlib.util.spec_from_file_location("behaviour", ROOT / "scripts" / "behaviour.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(path: pathlib.Path, lines: list[str]) -> str:
    path.write_text("".join(f"{line}\n" for line in lines))
    return str(path)


A = ["claims:8a.b4 " + "1" * 64, "example:serve_smoke.json " + "2" * 64]


def test_equal_outputs_report_nothing(behaviour, tmp_path, capsys):
    a, b = write(tmp_path / "a.txt", A), write(tmp_path / "b.txt", list(A))
    assert behaviour.main(["--compare", a, b]) == 0
    assert capsys.readouterr().out == ""


def test_a_changed_digest_is_listed_by_name(behaviour, tmp_path, capsys):
    a = write(tmp_path / "a.txt", A)
    b = write(tmp_path / "b.txt", [A[0], "example:serve_smoke.json " + "3" * 64])
    assert behaviour.main(["--compare", a, b]) == 1
    assert capsys.readouterr().out == "differs: example:serve_smoke.json\n"


def test_an_entry_on_one_side_only_is_listed(behaviour, tmp_path, capsys):
    a = write(tmp_path / "a.txt", A)
    b = write(tmp_path / "b.txt", A[1:] + ["pinned:tests/x.json " + "4" * 64])
    assert behaviour.main(["--compare", a, b]) == 1
    assert capsys.readouterr().out == (
        f"only in {a}: claims:8a.b4\nonly in {b}: pinned:tests/x.json\n"
    )


def test_entry_names_are_unique_and_cover_each_group(behaviour):
    names = [name for name, _ in behaviour.entries()]
    assert len(names) == len(set(names))
    groups = [name.split(":", 1)[0] for name in names]
    assert {group: groups.count(group) for group in dict.fromkeys(groups)} == {
        "claims": 46, "analyze": 5, "example": 9, "pinned": 5,
    }
