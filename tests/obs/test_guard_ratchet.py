"""Ratchet on ``obs.enabled`` guards in ``src/repro``.

A guard belongs only at a metric site that fires on fault-free runs
(``repro.obs.context``, "three shapes"): a pure count of trace events
is derived (``repro.obs.derived``) and a failure-path site calls the
self-guarding ``obs.count`` / ``observe`` / ``gauge_set``.  This test
counts every ``if`` statement or conditional expression whose test
reads ``.enabled`` on something named ``obs``, and fails when the count
grows past :data:`LIMIT`.  A change that removes guards lowers it; one
that needs a new hot-path guard raises it in the open.

Causal attribution is a view of the trace (``repro.obs.causal``): the
tracker is a trace subscriber, so no site outside ``repro.obs`` reads
``obs.causal`` (or a ``_causal`` copy of it) to feed it.  The one
exception is ``serve/service.py``, which creates the tracker and
exports what it built.  :data:`CAUSAL_LIMIT` is 0, so a hook site
cannot come back.
"""

import ast
import pathlib

SOURCE = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: 54 before the derived view and the helper conversions; 27 before the
#: ``messages_*`` trio joined the view; 17 before the chaos runner and
#: ``write_fleet_manifest`` stopped guarding the manifest's ``obs``.
LIMIT = 15

#: 13 hook sites before the tracker became a trace subscriber.
CAUSAL_LIMIT = 0
_CAUSAL_OWNERS = ("obs/", "serve/service.py")


def _reads_obs_enabled(test: ast.expr) -> bool:
    return any(
        isinstance(node, ast.Attribute) and node.attr == "enabled"
        and "obs" in ast.unparse(node.value)
        for node in ast.walk(test)
    )


def _reads_causal(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and (
        node.attr == "_causal"
        or (node.attr == "causal" and "obs" in ast.unparse(node.value))
    )


def guards() -> list[str]:
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.If, ast.IfExp)) and _reads_obs_enabled(node.test):
                found.append(f"{path.relative_to(SOURCE)}:{node.lineno}")
    return found


def causal_reads() -> list[str]:
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        site = path.relative_to(SOURCE).as_posix()
        if site.startswith(_CAUSAL_OWNERS):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if _reads_causal(node):
                found.append(f"{site}:{node.lineno}")
    return found


def test_obs_enabled_guards_do_not_grow():
    found = guards()
    assert len(found) <= LIMIT, "\n".join(found)


def test_the_counter_sees_each_guard_shape():
    tree = ast.parse(
        "if self.obs.enabled: pass\n"
        "if model is not None and self.node.obs.enabled: pass\n"
        "if not obs.enabled: pass\n"
        "x = obs if obs.enabled else None\n"
        "if self.enabled: pass\n"
        "if spec.enabled: pass\n"
    )
    hits = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, (ast.If, ast.IfExp)) and _reads_obs_enabled(node.test)
    ]
    assert sorted(hits) == [1, 2, 3, 4]


def test_no_causal_hook_sites():
    found = causal_reads()
    assert len(found) <= CAUSAL_LIMIT, "\n".join(found)


def test_the_counter_sees_each_causal_read():
    tree = ast.parse(
        "causal = self.obs.causal\n"
        "if self.node.obs.causal is not None: pass\n"
        "self._causal.submit(1, 2, 3.0)\n"
        "if spec.causal: pass\n"
        "args.causal\n"
    )
    hits = [node.lineno for node in ast.walk(tree) if _reads_causal(node)]
    assert sorted(hits) == [1, 2, 3]
