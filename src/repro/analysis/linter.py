"""The sim-purity linter framework.

A :class:`LintRule` walks one parsed module and yields
:class:`~repro.analysis.findings.Finding` objects.  Rules are small
classes registered with :func:`register_rule`; the built-in catalogue
lives in :mod:`repro.analysis.rules`.  Suppression is per line::

    started = time.perf_counter()   # repro: ignore[wall-clock] profiler

The framework resolves import aliases (``import numpy as np``, ``from
time import perf_counter as pc``) so rules can match on canonical
dotted names, and builds a parent map so rules can inspect enclosing
``if``/function context (used by the obs-guard rule).
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.analysis.findings import Finding

_SUPPRESS_RE = re.compile(r"#\s*repro:\s*ignore\[([A-Za-z0-9_\-, ]+)\]")

#: Framework-level finding kind for ignore comments that silence
#: nothing (not a LintRule — it needs the full run's findings).
STALE_SUPPRESSION_RULE = "stale-suppression"

#: Global rule registry: name -> rule class.
_REGISTRY: dict[str, type["LintRule"]] = {}


def register_rule(cls: type["LintRule"]) -> type["LintRule"]:
    """Class decorator adding a rule to the default catalogue."""
    if not cls.name:
        raise ValueError(f"rule class {cls.__name__} has no name")
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate rule name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def rule_names() -> list[str]:
    """Names of every registered rule, sorted."""
    _load_builtin_rules()
    return sorted(_REGISTRY)


def _load_builtin_rules() -> None:
    # Imported for the side effect of running the @register_rule
    # decorators; lazy to avoid a hard cycle at package import time.
    from repro.analysis import rules as _rules  # noqa: F401


class LintContext:
    """Everything a rule needs about one module under analysis."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.source = source
        self.tree = ast.parse(source, filename=path)
        self.lines = source.splitlines()
        self.aliases = _import_aliases(self.tree)
        self._parents: Optional[dict[int, ast.AST]] = None

    # -- name resolution -----------------------------------------------------

    def resolve_call(self, func: ast.expr) -> Optional[str]:
        """Canonical dotted name of a call target, or None.

        ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng`` given ``import numpy as np``.
        """
        parts = _attribute_chain(func)
        if not parts:
            return None
        head = self.aliases.get(parts[0], parts[0])
        return ".".join([head] + parts[1:])

    # -- tree navigation -----------------------------------------------------

    def parent_of(self, node: ast.AST) -> Optional[ast.AST]:
        if self._parents is None:
            self._parents = {}
            for outer in ast.walk(self.tree):
                for child in ast.iter_child_nodes(outer):
                    self._parents[id(child)] = outer
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self.parent_of(node)
        while current is not None:
            yield current
            current = self.parent_of(current)


class LintRule:
    """Base class for sim-purity rules.

    Subclasses set ``name``/``description`` and implement
    :meth:`check`, yielding findings (without worrying about
    suppressions — the driver applies those).
    """

    name: str = ""
    description: str = ""

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: LintContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.name,
            message=message,
            path=ctx.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
        )


def _attribute_chain(node: ast.expr) -> list[str]:
    """``a.b.c`` -> ["a", "b", "c"]; empty when not a plain chain."""
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return list(reversed(parts))
    return []


def _import_aliases(tree: ast.AST) -> dict[str, str]:
    """Local name -> canonical dotted prefix, from every import."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def suppressions(source: str) -> dict[int, set[str]]:
    """Line number -> rule names suppressed on that line."""
    table: dict[int, set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        names = {part.strip() for part in match.group(1).split(",") if part.strip()}
        if names:
            table.setdefault(lineno, set()).update(names)
    return table


def _comment_suppressions(source: str) -> dict[int, set[str]]:
    """Like :func:`suppressions`, but only for *real* comment tokens.

    The plain-text scan deliberately over-matches (a suppression in a
    docstring still reads as documentation); staleness reporting must
    not, or every documented example would be flagged.
    """
    table: dict[int, set[str]] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return table
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(token.string)
        if match is None:
            continue
        names = {
            part.strip()
            for part in match.group(1).split(",")
            if part.strip()
        }
        if names:
            table.setdefault(token.start[0], set()).update(names)
    return table


def stale_suppressions(
    source: str,
    path: str,
    raw_findings: Sequence[Finding],
    active_names: set[str],
) -> list[Finding]:
    """Findings for ignore comments that silence nothing.

    A suppressed rule name is judged only when it is in the *active*
    rule set (a ``--select`` subset cannot prove other rules silent);
    ``ignore[all]`` is judged only when every registered rule ran.  A
    name no rule is registered under can never suppress anything, so it
    is reported under any selection.
    """
    fired_by_line: dict[int, set[str]] = {}
    for finding in raw_findings:
        fired_by_line.setdefault(finding.line, set()).add(finding.rule)
    known = set(rule_names())
    full_run = active_names >= known
    idle = "suppresses nothing on this line; remove the stale comment"
    out: list[Finding] = []
    for lineno, names in sorted(_comment_suppressions(source).items()):
        if STALE_SUPPRESSION_RULE in names:
            continue
        fired = fired_by_line.get(lineno, set())
        stale = [("all", idle)] if "all" in names and full_run and not fired else []
        for name in sorted(names - {"all"}):
            if name not in known:
                stale.append((name, "names no registered rule; fix or remove the comment"))
            elif name in active_names and name not in fired:
                stale.append((name, idle))
        out.extend(
            Finding(STALE_SUPPRESSION_RULE, f"ignore[{name}] {text}", path, lineno)
            for name, text in stale
        )
    return out


def default_rules() -> list[LintRule]:
    """Fresh instances of every registered rule."""
    _load_builtin_rules()
    return [cls() for _, cls in sorted(_REGISTRY.items())]


class _LazyDefaultRules:
    """Sequence-like view over the registry, materialised on demand."""

    def __iter__(self) -> Iterator[LintRule]:
        return iter(default_rules())

    def __len__(self) -> int:
        _load_builtin_rules()
        return len(_REGISTRY)


#: Iterable of the built-in rule set (materialised lazily).
DEFAULT_RULES = _LazyDefaultRules()


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Iterable[LintRule]] = None,
    include_suppressed: bool = False,
    check_stale: bool = True,
) -> list[Finding]:
    """Run ``rules`` (default: all registered) over one module.

    ``check_stale`` also reports ignore comments that silence nothing
    (see :func:`stale_suppressions`).
    """
    active = list(rules) if rules is not None else default_rules()
    ctx = LintContext(path, source)
    silenced = suppressions(source)
    raw: list[Finding] = []
    for rule in active:
        raw.extend(rule.check(ctx))
    out: list[Finding] = []
    for finding in raw:
        names = silenced.get(finding.line, ())
        if finding.rule in names or "all" in names:
            if include_suppressed:
                out.append(
                    Finding(
                        rule=finding.rule,
                        message=finding.message,
                        path=finding.path,
                        line=finding.line,
                        col=finding.col,
                        suppressed=True,
                    )
                )
        else:
            out.append(finding)
    if check_stale:
        out.extend(
            stale_suppressions(
                source, path, raw, {rule.name for rule in active}
            )
        )
    out.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return out


def iter_python_files(paths: Sequence[str]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs if d not in ("__pycache__", ".git")
                )
                for name in sorted(files):
                    if name.endswith(".py"):
                        found.append(os.path.join(root, name))
        elif path.endswith(".py"):
            found.append(path)
    return sorted(dict.fromkeys(found))


def lint_paths(
    paths: Sequence[str],
    rules: Optional[Iterable[LintRule]] = None,
    include_suppressed: bool = False,
    on_error: Optional[Callable[[str, SyntaxError], None]] = None,
) -> list[Finding]:
    """Lint every ``.py`` file under ``paths``.

    Unparseable files are reported through ``on_error`` (or raised
    when no handler is given).
    """
    active = list(rules) if rules is not None else default_rules()
    findings: list[Finding] = []
    for file_path in iter_python_files(paths):
        with open(file_path, encoding="utf-8") as handle:
            source = handle.read()
        try:
            findings.extend(
                lint_source(
                    source, file_path, active,
                    include_suppressed=include_suppressed,
                )
            )
        except SyntaxError as exc:
            if on_error is None:
                raise
            on_error(file_path, exc)
    return findings
