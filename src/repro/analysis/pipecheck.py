"""Static analysis of behavioural P4 pipeline programs.

Works on a live :class:`repro.p4.pipeline.PipelineProgram` instance:
runtime state (declared registers, an attached switch agent) tells us
what exists, and the AST of the program class tells us how its one
control block, ``ingress``, uses it.  Checks:

* ``register-never-written`` — a register array read in the pipeline
  but written by no method of the program (or its agent): every read
  returns the initial value, which almost always means a missing
  control-plane write path;
* ``register-undeclared`` — the pipeline names a register the program
  never defines;
* ``unbounded-resubmit`` — ``ingress`` can request ``resubmit()`` but
  no :class:`~repro.p4.switch.P4Switch` runs the program: the switch
  is what caps the resubmits of one packet (``SimParams.max_resubmits``).

The pipeline is ``ingress`` plus every method it reaches through
``self.<method>()`` calls, so helpers like ``write_state`` count as
pipeline writes, while program methods ``ingress`` never reaches and
the attached agent's methods count as control-plane writers.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from typing import Any, Optional

from repro.analysis.findings import Finding
from repro.p4.switch import P4Switch


class _MethodFacts(ast.NodeVisitor):
    """Reads/writes/calls extracted from one method body."""

    def __init__(self) -> None:
        self.reads: set[str] = set()
        self.writes: set[str] = set()
        self.calls: set[str] = set()
        self.resubmits = False
        self._register_aliases: set[str] = set()

    # -- helpers -------------------------------------------------------------

    def _is_register_file(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Attribute) and node.attr == "registers":
            return True
        if isinstance(node, ast.Name) and node.id in self._register_aliases:
            return True
        return False

    def _register_name(self, node: ast.expr) -> Optional[str]:
        """``<registers>["name"]`` -> "name"."""
        if not isinstance(node, ast.Subscript):
            return None
        if not self._is_register_file(node.value):
            return None
        index = node.slice
        if isinstance(index, ast.Constant) and isinstance(index.value, str):
            return index.value
        return "<dynamic>"

    # -- visitors -------------------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._is_register_file(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._register_aliases.add(target.id)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            register = self._register_name(func.value)
            if register is not None and func.attr in ("read", "write", "reset"):
                if func.attr == "read":
                    self.reads.add(register)
                else:
                    self.writes.add(register)
            if func.attr == "resubmit":
                self.resubmits = True
            if isinstance(func.value, ast.Name) and func.value.id == "self":
                self.calls.add(func.attr)
        self.generic_visit(node)


def _class_methods(cls: type) -> dict[str, tuple[_MethodFacts, str, int]]:
    """Facts per method over the class's MRO (closest override wins)."""
    facts: dict[str, tuple[_MethodFacts, str, int]] = {}
    for klass in cls.__mro__:
        if klass is object:
            continue
        try:
            source = textwrap.dedent(inspect.getsource(klass))
            path = inspect.getsourcefile(klass) or f"<{klass.__name__}>"
            _, base_line = inspect.getsourcelines(klass)
        except (OSError, TypeError):  # pragma: no cover - builtins
            continue
        tree = ast.parse(source)
        class_node = next(
            (n for n in tree.body if isinstance(n, ast.ClassDef)), None
        )
        if class_node is None:
            continue
        for item in class_node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name in facts:
                continue  # already collected from a subclass override
            visitor = _MethodFacts()
            visitor.visit(item)
            facts[item.name] = (
                visitor, path, base_line + item.lineno - 1
            )
    return facts


def _reachable(facts: dict[str, tuple[_MethodFacts, str, int]], entry: str) -> set[str]:
    """``entry`` and every method it reaches through ``self.<m>()``."""
    seen: set[str] = set()
    frontier = [entry] if entry in facts else []
    while frontier:
        name = frontier.pop()
        if name in seen:
            continue
        seen.add(name)
        for callee in sorted(facts[name][0].calls):
            if callee in facts and callee not in seen:
                frontier.append(callee)
    return seen


def analyze_pipeline(program: Any) -> list[Finding]:
    """Run every pipeline check over ``program``; returns findings.

    The attached switch agent (``program.agent``), if any, counts as a
    control-plane register writer, and a :class:`P4Switch` agent bounds
    the program's resubmits.
    """
    findings: list[Finding] = []
    cls = type(program)
    class_path = inspect.getsourcefile(cls) or f"<{cls.__name__}>"

    facts = _class_methods(cls)
    pipeline = _reachable(facts, "ingress")

    # Control-plane writers: program methods ingress never reaches
    # (runtime API like store_uim), plus agent methods.
    control_writes: set[str] = set()
    for name, (info, _, _) in facts.items():
        if name not in pipeline:
            control_writes.update(info.writes)
    agent = getattr(program, "agent", None)
    if agent is not None:
        for info, _, _ in _class_methods(type(agent)).values():
            control_writes.update(info.writes)

    reads: set[str] = set()
    writes: set[str] = set()
    for name in pipeline:
        reads.update(facts[name][0].reads)
        writes.update(facts[name][0].writes)

    # -- register-never-written -----------------------------------------------
    for register in sorted(reads - writes - control_writes - {"<dynamic>"}):
        findings.append(
            Finding(
                rule="register-never-written",
                message=(
                    f"register {register!r} is read in ingress "
                    f"but no pipeline or control-plane code ever writes "
                    f"it; reads always return the initial value"
                ),
                path=class_path,
                line=0,
            )
        )

    # -- unknown register names (typo guard) ----------------------------------
    register_file = getattr(program, "registers", None)
    declared = set(register_file.names()) if register_file is not None else set()
    if declared:
        for register in sorted((reads | writes) - {"<dynamic>"} - declared):
            findings.append(
                Finding(
                    rule="register-undeclared",
                    message=(
                        f"pipeline code accesses register {register!r} "
                        f"which the program never defines"
                    ),
                    path=class_path,
                    line=0,
                )
            )

    # -- unbounded resubmit ----------------------------------------------------
    resubmitters = sorted(name for name in pipeline if facts[name][0].resubmits)
    if resubmitters and not isinstance(agent, P4Switch):
        _, path, line = facts[resubmitters[0]]
        findings.append(
            Finding(
                rule="unbounded-resubmit",
                message=(
                    f"{'/'.join(resubmitters)} request resubmit() but no "
                    f"P4Switch runs the program to cap the resubmits; a "
                    f"permanently-deferred packet loops forever"
                ),
                path=path,
                line=line,
            )
        )

    findings.sort(key=lambda f: (f.rule, f.message))
    return findings
