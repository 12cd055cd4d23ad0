"""Ratchet on ``obs.enabled`` guards in ``src/repro``.

A guard belongs only at a metric site that fires on fault-free runs
(``repro.obs.context``, "three shapes"): a pure count of trace events
is derived (``repro.obs.derived``) and a failure-path site calls the
self-guarding ``obs.count`` / ``observe`` / ``gauge_set``.  This test
counts every ``if`` statement or conditional expression whose test
reads ``.enabled`` on something named ``obs``, and fails when the count
grows past :data:`LIMIT`.  A change that removes guards lowers it; one
that needs a new hot-path guard raises it in the open.
"""

import ast
import pathlib

SOURCE = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: 54 before the derived view and the helper conversions; 27 before the
#: ``messages_*`` trio joined the view.
LIMIT = 17


def _reads_obs_enabled(test: ast.expr) -> bool:
    return any(
        isinstance(node, ast.Attribute) and node.attr == "enabled"
        and "obs" in ast.unparse(node.value)
        for node in ast.walk(test)
    )


def guards() -> list[str]:
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.If, ast.IfExp)) and _reads_obs_enabled(node.test):
                found.append(f"{path.relative_to(SOURCE)}:{node.lineno}")
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
