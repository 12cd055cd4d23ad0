"""A package ``__init__`` re-exports only names some caller imports through it.

A name an ``__init__`` imports from a ``repro`` module is used when a
file of the repository imports it as ``from repro.<pkg> import …``,
reads it as ``<pkg>.<name>`` or names it as ``repro.<pkg>:<name>``, or
when the ``__init__`` itself uses it.  Any other re-export is a second
import path for a name its defining module already gives
(docs/ARCHITECTURE.md, "What a package exports").
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
SEARCHED_DIRS = ("src", "tests", "scripts", "benchmarks", "examples", "docs", ".claude")
SEARCHED_FILES = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
SUFFIXES = {".py", ".md", ".json", ".toml", ".txt", ".yml"}


def re_exports(init: pathlib.Path) -> set[str]:
    """Names ``init`` imports from ``repro`` modules and does not use itself."""
    tree = ast.parse(init.read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro")
        for alias in node.names
    }
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def searched_texts() -> dict[pathlib.Path, str]:
    paths = [ROOT / name for name in SEARCHED_FILES]
    for name in SEARCHED_DIRS:
        paths += [p for p in (ROOT / name).rglob("*") if p.suffix in SUFFIXES and p.is_file()]
    this = pathlib.Path(__file__).resolve()     # its examples below are not uses
    return {path: path.read_text(errors="replace") for path in paths if path != this}


def used_through(package: str, names: set[str], texts: dict[pathlib.Path, str]) -> set[str]:
    short = package.rsplit(".", 1)[-1]
    imports = re.compile(rf"from\s+{re.escape(package)}\s+import\s+(\([^)]*\)|[^\n]*)")
    alternatives = "|".join(sorted(map(re.escape, names)))
    reads = re.compile(rf"(?:\b{short}\.|{re.escape(package)}:)({alternatives})\b")
    used: set[str] = set()
    for text in texts.values():
        for match in imports.finditer(text):
            used.update(re.findall(r"\w+", match.group(1)))
        used.update(reads.findall(text))
    return used & names


def unused_re_exports() -> dict[str, list[str]]:
    texts = searched_texts()
    unused = {}
    for init in sorted(SRC.rglob("__init__.py")):
        names = re_exports(init)
        if init.parent == SRC or not names:
            continue
        package = ".".join(init.parent.relative_to(SRC.parent).parts)
        others = {path: text for path, text in texts.items() if path != init}
        left = sorted(names - used_through(package, names, others))
        if left:
            unused[package] = left
    return unused


def test_every_re_export_is_imported_through_its_package():
    unused = unused_re_exports()
    total = sum(map(len, unused.values()))
    assert not unused, f"{total} re-exports nothing imports through their package:\n" + "\n".join(
        f"  {package}: {' '.join(names)}" for package, names in unused.items()
    )


def test_the_rule_sees_a_use_in_each_form(tmp_path):
    texts = {
        tmp_path / "a.py": "from repro.obs import (\n    make_obs,\n    NULL_OBS,\n)\n",
        tmp_path / "b.md": "`repro.topo.TOPOLOGIES` and `repro.sweep:run_sweep`",
    }
    names = {"make_obs", "NULL_OBS", "Sampler"}
    assert used_through("repro.obs", names, texts) == {"make_obs", "NULL_OBS"}
    assert used_through("repro.topo", {"TOPOLOGIES", "Topology"}, texts) == {"TOPOLOGIES"}
    assert used_through("repro.sweep", {"run_sweep", "run_fleet"}, texts) == {"run_sweep"}
