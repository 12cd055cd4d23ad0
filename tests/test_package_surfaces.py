"""Every name has one import path: the module that defines it.

A package ``__init__`` is a docstring plus what it defines itself.  A
name imported as ``from repro.<pkg> import …``, read as
``repro.<pkg>.<name>`` or named as ``repro.<pkg>:<name>`` must be
defined in that ``__init__`` or be a submodule of the package
(docs/ARCHITECTURE.md, "What a package exports").

``PERF_ONLY`` are the one exception: ``benchmarks/perf/workloads.py``
imports them through their packages, and a change to the benchmark
moves them.  No other file may use those paths.

Every ``from repro… import …`` line of the README, ``docs/``,
``examples/`` and ``.claude/`` is imported, so no document teaches a
path that does not exist.
"""

import ast
import importlib.util
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
SEARCHED_DIRS = ("src", "tests", "scripts", "benchmarks", "examples", "docs", ".claude")
SEARCHED_FILES = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
SUFFIXES = {".py", ".md", ".json", ".toml", ".txt", ".yml"}
PERF = pathlib.Path("benchmarks", "perf")
DOCS = ("README.md", "docs/*.md", "examples/**/*", ".claude/**/*.md")

#: Re-exports ``benchmarks/perf/workloads.py`` reads through the package.
PERF_ONLY = {
    "repro.obs": {"make_obs"},
    "repro.serve": {"ServeSpec", "run_service"},
    "repro.sweep": {"build_sweep_results", "load_sweep_spec", "run_sweep"},
}

_IMPORT = re.compile(r"from\s+(repro(?:\.\w+)+)\s+import\s+(\([^)]*\)|[^\n]*)")
_READ = re.compile(r"\b(repro(?:\.\w+)+)[.:](\w+)")


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


def own_names(init: pathlib.Path) -> set[str]:
    """What a package gives through itself: its ``__init__``'s top-level
    definitions and its submodules."""
    names = {p.stem for p in init.parent.glob("*.py")} | {
        p.parent.name for p in init.parent.glob("*/__init__.py")
    }
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names - {"__init__"}


def packages() -> dict[str, set[str]]:
    """Each ``repro`` subpackage's dotted name -> its own names."""
    return {
        ".".join(init.parent.relative_to(SRC.parent).parts): own_names(init)
        for init in sorted(SRC.rglob("__init__.py"))
        if init.parent != SRC
    }


def searched_texts() -> dict[pathlib.Path, str]:
    paths = [ROOT / name for name in SEARCHED_FILES]
    for name in SEARCHED_DIRS:
        paths += [p for p in (ROOT / name).rglob("*") if p.suffix in SUFFIXES and p.is_file()]
    this = pathlib.Path(__file__).resolve()     # its examples below are not uses
    return {
        path.relative_to(ROOT): path.read_text(errors="replace") for path in paths if path != this
    }


def imported_names(clause: str) -> list[str]:
    """The names of an import clause, without aliases, comments or the
    prose after a Markdown code span."""
    clause = re.sub(r"#[^\n]*", "", clause.strip("()")).split("`")[0]
    return [m.group(1) for m in re.finditer(r"(?:^|,)\s*(\w+)", clause)]


def second_paths(
    texts: dict[pathlib.Path, str], own: dict[str, set[str]]
) -> list[str]:
    """``path:line: package.name`` for every use of a package path the
    package does not define (``texts`` is keyed by repository-relative
    path)."""
    found = []
    for path, text in sorted(texts.items()):
        allowed = PERF_ONLY if PERF in path.parents else {}
        uses = [
            (m.start(), m.group(1), name)
            for m in _IMPORT.finditer(text)
            for name in imported_names(m.group(2))
        ] + [(m.start(), m.group(1), m.group(2)) for m in _READ.finditer(text)]
        for start, package, name in sorted(uses):
            if package not in own or name.startswith("__"):
                continue
            if name in own[package] or name in allowed.get(package, ()):
                continue
            line = text.count("\n", 0, start) + 1
            found.append(f"{path}:{line}: {package}.{name}")
    return found


def test_every_name_is_imported_from_its_defining_module():
    found = second_paths(searched_texts(), packages())
    assert not found, f"{len(found)} uses of a package path for a name it does not define:\n" + (
        "\n".join(f"  {use}" for use in found)
    )


def test_no_package_re_exports_beyond_the_perf_reads():
    extra = {}
    for init in sorted(SRC.rglob("__init__.py")):
        package = ".".join(init.parent.relative_to(SRC.parent).parts)
        left = sorted(re_exports(init) - PERF_ONLY.get(package, set()))
        if left and init.parent != SRC:
            extra[package] = left
    assert not extra, "re-exports a package does not use itself:\n" + "\n".join(
        f"  {package}: {' '.join(names)}" for package, names in extra.items()
    )


def test_perf_only_names_are_still_re_exported():
    for package, names in PERF_ONLY.items():
        init = SRC.joinpath(*package.split(".")[1:], "__init__.py")
        assert names <= re_exports(init), package


def doc_imports() -> list:
    """One case per import line in ``DOCS``, named ``path:line``."""
    paths = sorted({p for pattern in DOCS for p in ROOT.glob(pattern) if p.is_file()})
    cases = []
    for path in paths:
        text = path.read_text(errors="replace")
        for m in _IMPORT.finditer(text):
            where = f"{path.relative_to(ROOT)}:{text.count(chr(10), 0, m.start()) + 1}"
            cases.append(pytest.param(where, m.group(1), imported_names(m.group(2)), id=where))
    return cases


@pytest.mark.parametrize("where,module,names", doc_imports())
def test_documented_import_works(where, module, names):
    imported = importlib.import_module(module)
    missing = [
        name for name in names
        if not hasattr(imported, name)
        and importlib.util.find_spec(f"{module}.{name}") is None
    ]
    assert names and not missing, f"{where}: from {module} import {missing or '?'}"


def test_the_rule_sees_a_use_in_each_form():
    own = {"repro.obs": {"context", "sampler"}, "repro.topo": {"TOPOLOGIES", "graph"}}
    texts = {
        pathlib.Path("a.py"): "from repro.obs import (  # two\n    context,\n    make_obs,\n)\n"
        "from repro.topo import TOPOLOGIES, graph as g  # noqa\n",
        pathlib.Path("b.md"): "`repro.topo.TOPOLOGIES`, `repro.topo.Topology` and "
        "`repro.obs:Sampler`; `from repro.obs import make_obs`, or reads",
        pathlib.Path("c.py"): "from repro.obs.context import make_obs\nrepro.obs.__doc__\n",
    }
    assert [use.split(": ")[1] for use in second_paths(texts, own)] == [
        "repro.obs.make_obs",
        "repro.topo.Topology",
        "repro.obs.Sampler",
        "repro.obs.make_obs",
    ]
