"""Static analysis of behavioural P4 pipeline programs.

Works on a live :class:`repro.p4.pipeline.PipelineProgram` instance:
runtime state (declared registers, an attached switch agent) tells us
what exists, and the AST of the program class tells us how the control
blocks use it.  Checks:

* ``register-never-written`` — a register array read somewhere in the
  pipeline but written by no method of the program (or its agent):
  every read returns the initial value, which almost always means a
  missing control-plane write path;
* ``register-read-before-write`` — a register whose only writes
  happen in a *later* pipeline stage than its reads (stage order
  parser -> ingress -> egress), with no control-plane writer: the
  first pass through the earlier stage always sees the default;
* ``unbounded-resubmit`` — stage code requests ``resubmit()`` but
  nothing bounds the recursion: the program never consults
  ``resubmit_count`` and no runtime cap (``max_resubmits``) was
  declared to the analyzer.

Method reachability is computed over ``self.<method>()`` calls
starting from the three stage entry points, so helpers like
``write_state`` called from ``ingress`` count as stage writes, while
methods only the switch agent calls count as control-plane writers.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from typing import Any, Iterable, Optional

from repro.analysis.findings import Finding

STAGE_ORDER = ("parser", "ingress", "egress")


class _MethodFacts(ast.NodeVisitor):
    """Reads/writes/calls extracted from one method body."""

    def __init__(self) -> None:
        self.reads: set[str] = set()
        self.writes: set[str] = set()
        self.calls: set[str] = set()
        self.resubmits = False
        self.mentions_resubmit_count = False
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

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "resubmit_count":
            self.mentions_resubmit_count = True
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if node.id == "resubmit_count":
            self.mentions_resubmit_count = True
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


def _reachable(
    facts: dict[str, tuple[_MethodFacts, str, int]], entries: Iterable[str]
) -> set[str]:
    seen: set[str] = set()
    frontier = [name for name in entries if name in facts]
    while frontier:
        name = frontier.pop()
        if name in seen:
            continue
        seen.add(name)
        for callee in sorted(facts[name][0].calls):
            if callee in facts and callee not in seen:
                frontier.append(callee)
    return seen


def analyze_pipeline(
    program: Any,
    max_resubmits: Optional[int] = None,
    include_agent: bool = True,
) -> list[Finding]:
    """Run every pipeline check over ``program``; returns findings.

    ``max_resubmits`` declares an externally enforced resubmission cap
    (e.g. :data:`repro.params.SimParams.max_resubmits`, enforced by
    the switch agent); without it, unguarded ``resubmit()`` calls are
    flagged.  With ``include_agent`` (default), the attached switch
    agent's methods count as control-plane register writers.
    """
    findings: list[Finding] = []
    cls = type(program)
    class_path = inspect.getsourcefile(cls) or f"<{cls.__name__}>"

    facts = _class_methods(cls)

    # Stage-reachable methods, per stage (in declared stage order).
    per_stage: dict[str, set[str]] = {
        stage: _reachable(facts, [stage]) for stage in STAGE_ORDER
    }
    stage_methods = set().union(*per_stage.values())

    # Control-plane writers: program methods nothing in the stages
    # reaches (runtime API like store_uim), plus agent methods.
    control_writes: set[str] = set()
    for name, (info, _, _) in facts.items():
        if name not in stage_methods:
            control_writes.update(info.writes)
    agent = getattr(program, "agent", None)
    if include_agent and agent is not None:
        for info, _, _ in _class_methods(type(agent)).values():
            control_writes.update(info.writes)

    def _stage_sets(kind: str) -> dict[str, set[str]]:
        out: dict[str, set[str]] = {}
        for stage in STAGE_ORDER:
            names: set[str] = set()
            for method in per_stage[stage]:
                names.update(getattr(facts[method][0], kind))
            out[stage] = names
        return out

    reads_by_stage = _stage_sets("reads")
    writes_by_stage = _stage_sets("writes")
    all_stage_writes = set().union(*writes_by_stage.values())
    all_stage_reads = set().union(*reads_by_stage.values())

    register_file = getattr(program, "registers", None)
    declared = set(register_file.names()) if register_file is not None else set()

    # -- register-never-written -----------------------------------------------
    for register in sorted(all_stage_reads - {"<dynamic>"}):
        if register in all_stage_writes or register in control_writes:
            continue
        where = sorted(
            stage for stage in STAGE_ORDER if register in reads_by_stage[stage]
        )
        findings.append(
            Finding(
                rule="register-never-written",
                message=(
                    f"register {register!r} is read in {'/'.join(where)} "
                    f"but no pipeline or control-plane code ever writes "
                    f"it; reads always return the initial value"
                ),
                path=class_path,
                line=0,
            )
        )

    # -- register-read-before-write -------------------------------------------
    for register in sorted(all_stage_reads - {"<dynamic>"}):
        if register in control_writes:
            continue
        read_stages = [
            i for i, stage in enumerate(STAGE_ORDER)
            if register in reads_by_stage[stage]
        ]
        write_stages = [
            i for i, stage in enumerate(STAGE_ORDER)
            if register in writes_by_stage[stage]
        ]
        if not write_stages:
            continue  # already reported as never-written
        if min(read_stages) < min(write_stages):
            findings.append(
                Finding(
                    rule="register-read-before-write",
                    message=(
                        f"register {register!r} is read in stage "
                        f"{STAGE_ORDER[min(read_stages)]!r} but first "
                        f"written in the later stage "
                        f"{STAGE_ORDER[min(write_stages)]!r}; the first "
                        f"pass sees the default value"
                    ),
                    path=class_path,
                    line=0,
                )
            )

    # -- unknown register names (typo guard) ----------------------------------
    if declared:
        for register in sorted(
            (all_stage_reads | all_stage_writes) - {"<dynamic>"} - declared
        ):
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
    resubmitters = sorted(
        name for name in stage_methods if facts[name][0].resubmits
    )
    if resubmitters and max_resubmits is None:
        bounded = any(
            facts[name][0].mentions_resubmit_count for name in stage_methods
        )
        if not bounded:
            _, path, line = facts[resubmitters[0]]
            findings.append(
                Finding(
                    rule="unbounded-resubmit",
                    message=(
                        f"{'/'.join(resubmitters)} request resubmit() but "
                        f"neither the program consults resubmit_count nor "
                        f"was a runtime cap (max_resubmits) declared; a "
                        f"permanently-deferred packet loops forever"
                    ),
                    path=path,
                    line=line,
                )
            )

    findings.sort(key=lambda f: (f.rule, f.message))
    return findings
