"""Built-in sim-purity rules.

Each rule targets one way a change can silently break the repo's
determinism contract (obs-on runs bit-identical to obs-off in
simulated time; same seed -> same trace):

* ``wall-clock`` — reading the host clock inside simulation code ties
  behaviour to the machine, not the seed;
* ``unseeded-random`` — module-level ``random`` / ``numpy.random``
  calls draw from hidden global state instead of the run's seeded
  generator;
* ``set-iteration`` — iterating a ``set`` yields hash order, which
  varies across processes once strings are involved; if that order
  reaches event scheduling, traces diverge;
* ``mutable-default`` — a shared default ``[]``/``{}``/``set()``
  leaks state between calls (and between runs in one process);
* ``unguarded-obs`` — metric calls outside an ``.enabled`` guard
  allocate label tuples even when observability is off, violating the
  zero-overhead contract of :mod:`repro.obs`;
* ``blocking-in-service`` — real-thread blocking (``time.sleep``,
  timed ``Queue.get``/``join``/``acquire``/``wait``) inside service
  code stalls the host instead of the simulated clock; all waiting
  must be expressed as engine events;
* ``fuzz-nondeterminism`` — the fuzzer's own reproducibility contract
  (fixed seed + budget -> byte-identical campaign): wall-clock reads,
  unseeded RNG and set-iteration inside :mod:`repro.fuzz` are all
  re-reported under one name, so the fuzz package can be held to a
  stricter bar than the rest of the tree without new suppressions;
* ``private-cross-import`` — ``from repro.<pkg>... import _name`` in a
  file of a different ``repro`` package couples two packages through a
  name neither promises to keep (a design rule, not a determinism one:
  a refactor of the owner silently breaks the importer).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.findings import Finding
from repro.analysis.linter import LintContext, LintRule, register_rule

WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


@register_rule
class WallClockRule(LintRule):
    name = "wall-clock"
    description = (
        "call reads the host wall clock; simulation code must derive "
        "time from the engine clock (engine.now)"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.resolve_call(node.func)
            if target in WALL_CLOCK_CALLS:
                yield self.finding(
                    ctx, node,
                    f"{target}() reads the wall clock; use the simulated "
                    f"clock or suppress if wall time is the point",
                )


#: numpy.random attributes that are fine (seeded-generator factories).
_SEEDED_FACTORIES = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64",
}


@register_rule
class UnseededRandomRule(LintRule):
    name = "unseeded-random"
    description = (
        "module-level random draw from hidden global state; use the "
        "run's seeded numpy Generator"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.resolve_call(node.func)
            if target is None:
                continue
            if target.startswith("random.") and target != "random.Random":
                yield self.finding(
                    ctx, node,
                    f"{target}() uses the global random state; draw from "
                    f"a seeded generator instead",
                )
            elif target.startswith("numpy.random."):
                attr = target.split(".", 2)[2]
                if attr.split(".")[0] not in _SEEDED_FACTORIES:
                    yield self.finding(
                        ctx, node,
                        f"{target}() uses numpy's global random state; use "
                        f"numpy.random.default_rng(seed)",
                    )


def _is_set_expr(node: ast.expr) -> bool:
    """True when the expression is syntactically a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in (
            "union", "intersection", "difference", "symmetric_difference",
        ):
            return _is_set_expr(func.value)
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


@register_rule
class SetIterationRule(LintRule):
    name = "set-iteration"
    description = (
        "iteration over a set visits elements in hash order; wrap in "
        "sorted(...) so the order cannot leak into scheduling"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if _is_set_expr(it):
                    yield self.finding(
                        ctx, it,
                        "iterating a set in hash order; use "
                        "sorted(<set>) to pin the order",
                    )


_MUTABLE_CALLS = {"set", "list", "dict", "frozenset", "bytearray", "defaultdict"}


@register_rule
class MutableDefaultRule(LintRule):
    name = "mutable-default"
    description = "mutable default argument is shared between calls"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in _MUTABLE_CALLS
                ):
                    yield self.finding(
                        ctx, default,
                        f"mutable default in {node.name}(); use None and "
                        f"create inside the body (or a dataclass "
                        f"default_factory)",
                    )


#: Calls that always block the real thread.
BLOCKING_CALLS = {
    "time.sleep",
    "select.select",
    "signal.pause",
    "os.wait",
    "os.waitpid",
}

#: Attribute calls that block when given a ``timeout=`` keyword
#: (``queue.Queue.get(timeout=...)``, ``threading.Event.wait(...)``,
#: ``Thread.join(...)``, lock ``acquire(timeout=...)``).
_TIMED_BLOCKING_ATTRS = {"get", "join", "acquire", "wait"}


@register_rule
class BlockingInServiceRule(LintRule):
    name = "blocking-in-service"
    description = (
        "real-thread blocking call; service code must wait on the "
        "simulated clock (engine.schedule), never the host's"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.resolve_call(node.func)
            if target in BLOCKING_CALLS:
                yield self.finding(
                    ctx, node,
                    f"{target}() blocks the real thread; schedule an "
                    f"engine event instead",
                )
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _TIMED_BLOCKING_ATTRS
                and any(kw.arg == "timeout" for kw in node.keywords)
            ):
                yield self.finding(
                    ctx, node,
                    f".{func.attr}(timeout=...) waits on the real clock; "
                    f"model the wait as a simulated-time event",
                )


@register_rule
class FuzzNondeterminismRule(LintRule):
    name = "fuzz-nondeterminism"
    description = (
        "nondeterminism source inside repro.fuzz; campaigns must be "
        "byte-identical for a fixed (seed, budget)"
    )

    #: The sub-rules whose findings break fuzz reproducibility.
    _SUB_RULES = (WallClockRule, UnseededRandomRule, SetIterationRule)

    def _applies(self, path: str) -> bool:
        normalized = path.replace("\\", "/")
        return "repro/fuzz" in normalized

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if not self._applies(ctx.path):
            return
        for sub_rule in self._SUB_RULES:
            for found in sub_rule().check(ctx):
                yield Finding(
                    rule=self.name,
                    message=f"[{sub_rule.name}] {found.message}",
                    path=found.path,
                    line=found.line,
                    col=found.col,
                )


@register_rule
class PrivateCrossImportRule(LintRule):
    name = "private-cross-import"
    description = (
        "imports a _private name from another repro package; promote "
        "it to a public name in the module that owns it"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        _, inside, rest = ctx.path.replace("\\", "/").rpartition("repro/")
        if not inside:
            return
        own = rest.split("/")[0].removesuffix(".py")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ImportFrom) or node.level:
                continue
            package = (node.module or "").split(".")
            if package[0] != "repro" or package[1:2] in ([], [own]):
                continue
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    yield self.finding(
                        ctx, node,
                        f"{alias.name} is private to repro.{package[1]}; "
                        f"{node.module} should export a public name",
                    )


_METRIC_METHODS = {"counter", "gauge", "histogram"}


def _is_obs_metric_call(node: ast.Call, methods: Iterable[str] = _METRIC_METHODS) -> bool:
    """Matches ``<...>.obs.metrics.counter(...)`` style calls."""
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr in methods):
        return False
    registry = func.value
    if not (isinstance(registry, ast.Attribute) and registry.attr == "metrics"):
        return False
    owner = registry.value
    if isinstance(owner, ast.Attribute):
        return owner.attr == "obs"
    if isinstance(owner, ast.Name):
        return owner.id == "obs" or owner.id.endswith("_obs")
    return False


def _is_obs_family_use(node: ast.Subscript) -> bool:
    """Matches ``self._m_<what>[...]`` (a family bound in ``__init__``,
    see ``repro.obs.registry``) and ``<...>.obs.metrics.family(...)[...]``."""
    family = node.value
    if isinstance(family, ast.Attribute):
        return ast.unparse(family.value) == "self" and family.attr.startswith("_m_")
    return isinstance(family, ast.Call) and _is_obs_metric_call(family, ("family",))


def _guarded(ctx: LintContext, node: ast.AST) -> bool:
    """True when the metric use sits under an ``.enabled`` check.

    Two accepted shapes: an enclosing ``if``/``while``/ternary whose
    test mentions ``enabled``, or an earlier guard clause in the same
    function (``if not obs.enabled: return``).
    """
    enclosing_fn: ast.AST | None = None
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, (ast.If, ast.While, ast.IfExp)):
            if "enabled" in ast.unparse(ancestor.test):
                return True
        elif isinstance(ancestor, ast.Assert):
            if "enabled" in ast.unparse(ancestor.test):
                return True
        elif isinstance(
            ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)
        ) and enclosing_fn is None:
            enclosing_fn = ancestor
    if enclosing_fn is None:
        return False
    for stmt in enclosing_fn.body:  # type: ignore[attr-defined]
        if stmt.lineno >= node.lineno:
            break
        if (
            isinstance(stmt, ast.If)
            and "enabled" in ast.unparse(stmt.test)
            and all(
                isinstance(s, (ast.Return, ast.Raise, ast.Continue))
                for s in stmt.body
            )
        ):
            return True
    return False


@register_rule
class UnguardedObsRule(LintRule):
    name = "unguarded-obs"
    description = (
        "obs metric call or metric-family subscript outside an `if obs.enabled:` "
        "guard; hot paths must stay allocation-free when observability is off"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and _is_obs_metric_call(node):
                use = f"{ast.unparse(node.func)}(...)"
            elif isinstance(node, ast.Subscript) and _is_obs_family_use(node):
                use = f"{ast.unparse(node.value)}[...]"
            else:
                continue
            if _guarded(ctx, node):
                continue
            yield self.finding(
                ctx, node,
                f"{use} is not guarded by `.enabled`; wrap it in "
                f"`if obs.enabled:` (or use obs.count()/obs.observe())",
            )
