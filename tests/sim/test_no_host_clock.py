"""The host-clock audit: the simulated core never reads the host clock.

Simulated time comes from ``Engine.now`` alone, so a run is a function
of its seed and not of the machine.  Host-time attribution lives
outside the core (``repro.obs.sampler``, which samples the CPU from a
signal handler, and the harness's preparation timers).  This audit
keeps it there: under ``sim``,
``core``, ``p4`` and ``consistency`` no file imports or reads the
``time`` / ``datetime`` modules, and none carries an
``ignore[wall-clock]`` suppression that would let the linter's
``wall-clock`` rule look away."""

import ast
import glob
import os

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(REPO, "src", "repro")
CORE = ("sim", "core", "p4", "consistency")
CLOCK_MODULES = {"time", "datetime"}


def _core_sources():
    for package in CORE:
        pattern = os.path.join(SRC, package, "**", "*.py")
        for path in sorted(glob.glob(pattern, recursive=True)):
            with open(path, encoding="utf-8") as handle:
                yield os.path.relpath(path, SRC), handle.read()


def _clock_reads(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] in CLOCK_MODULES for alias in node.names):
                yield node.lineno
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] in CLOCK_MODULES:
                yield node.lineno
        elif isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id in CLOCK_MODULES:
                yield node.lineno


def test_core_packages_exist():
    assert all(os.path.isdir(os.path.join(SRC, package)) for package in CORE)


def test_simulated_core_never_reads_the_host_clock():
    offenders = [
        f"{path}:{line}"
        for path, text in _core_sources()
        for line in sorted(set(_clock_reads(ast.parse(text))))
    ]
    assert not offenders, (
        "the simulated core reads the host clock; time comes from "
        f"Engine.now (host time: repro.obs.sampler): {offenders}"
    )


def test_simulated_core_suppresses_no_wall_clock_finding():
    offenders = [
        f"{path}:{number}"
        for path, text in _core_sources()
        for number, line in enumerate(text.splitlines(), 1)
        if "ignore[wall-clock]" in line
    ]
    assert not offenders, (
        f"a wall-clock suppression in the simulated core: {offenders}"
    )
