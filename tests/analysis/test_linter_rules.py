"""Every built-in sim-purity rule: positive hit + suppression."""

import textwrap

import pytest

from repro.analysis import lint_source
from repro.analysis.linter import (
    LintContext,
    default_rules,
    lint_paths,
    rule_names,
    suppressions,
)


def lint(code, **kwargs):
    return lint_source(textwrap.dedent(code), path="mod.py", **kwargs)


def rules_hit(code, **kwargs):
    return {f.rule for f in lint(code, **kwargs)}


# -- wall-clock ---------------------------------------------------------------


def test_wall_clock_direct_call():
    findings = lint("""
        import time
        def stamp():
            return time.time()
    """)
    assert [f.rule for f in findings] == ["wall-clock"]
    assert findings[0].line == 4


def test_wall_clock_aliased_module():
    assert rules_hit("""
        import time as clock
        t = clock.perf_counter()
    """) == {"wall-clock"}


def test_wall_clock_from_import():
    assert rules_hit("""
        from time import perf_counter
        t = perf_counter()
    """) == {"wall-clock"}


def test_wall_clock_datetime_now():
    assert rules_hit("""
        import datetime
        stamp = datetime.datetime.now()
    """) == {"wall-clock"}


def test_wall_clock_suppressed():
    findings = lint("""
        import time
        t = time.time()  # repro: ignore[wall-clock] profiler needs wall time
    """)
    assert findings == []


def test_wall_clock_sleep_not_flagged():
    # Sleeping is a scheduling sin (blocking-in-service), not a
    # determinism sin: the wall-clock rule must leave it alone.
    assert rules_hit("""
        import time
        time.sleep(1)
    """) == {"blocking-in-service"}


# -- unseeded-random -----------------------------------------------------------


def test_unseeded_stdlib_random():
    assert rules_hit("""
        import random
        x = random.random()
        y = random.shuffle([1, 2])
    """) == {"unseeded-random"}


def test_unseeded_numpy_global_state():
    assert rules_hit("""
        import numpy as np
        x = np.random.rand(3)
    """) == {"unseeded-random"}


def test_seeded_numpy_generator_ok():
    assert rules_hit("""
        import numpy as np
        rng = np.random.default_rng(0)
        x = rng.integers(0, 10)
    """) == set()


def test_unseeded_random_suppressed():
    findings = lint("""
        import random
        x = random.random()  # repro: ignore[unseeded-random]
    """)
    assert findings == []


# -- set-iteration -------------------------------------------------------------


def test_set_literal_iteration():
    assert rules_hit("""
        for item in {"a", "b"}:
            print(item)
    """) == {"set-iteration"}


def test_set_call_iteration():
    assert rules_hit("""
        def f(xs):
            return [x for x in set(xs)]
    """) == {"set-iteration"}


def test_set_union_iteration():
    assert rules_hit("""
        def f(a, b):
            for x in set(a) | set(b):
                yield x
    """) == {"set-iteration"}


def test_sorted_set_ok():
    assert rules_hit("""
        def f(xs):
            for x in sorted(set(xs)):
                yield x
    """) == set()


def test_set_iteration_suppressed():
    findings = lint("""
        def f(xs):
            for x in set(xs):  # repro: ignore[set-iteration] order irrelevant
                xs.discard(x)
    """)
    assert findings == []


# -- mutable-default -----------------------------------------------------------


def test_mutable_default_literal():
    assert rules_hit("""
        def f(items=[]):
            return items
    """) == {"mutable-default"}


def test_mutable_default_call():
    assert rules_hit("""
        def f(*, seen=set()):
            return seen
    """) == {"mutable-default"}


def test_none_default_ok():
    assert rules_hit("""
        def f(items=None):
            return items or []
    """) == set()


def test_mutable_default_suppressed():
    findings = lint("""
        def f(items=[]):  # repro: ignore[mutable-default]
            return items
    """)
    assert findings == []


# -- unguarded-obs -------------------------------------------------------------


def test_unguarded_obs_metric():
    assert rules_hit("""
        def record(self):
            self.obs.metrics.counter("packets", node=self.name).inc()
    """) == {"unguarded-obs"}


def test_guarded_obs_metric_ok():
    assert rules_hit("""
        def record(self):
            if self.obs.enabled:
                self.obs.metrics.counter("packets", node=self.name).inc()
    """) == set()


def test_guard_clause_obs_ok():
    # The scheduler.attach_obs shape: early return, then bare calls.
    assert rules_hit("""
        def attach(obs, name):
            if not obs.enabled:
                return
            obs.metrics.counter("admitted", node=name).inc()
    """) == set()


def test_unguarded_bound_family_flagged():
    findings = lint("""
        class Net:
            def send(self, node):
                self._m_sent[node, "data"].inc()
    """)
    assert [(f.rule, f.line) for f in findings] == [("unguarded-obs", 4)]
    assert "self._m_sent[...]" in findings[0].message


def test_unguarded_family_call_flagged():
    assert rules_hit("""
        def install(self):
            self.obs.metrics.family("counter", "rule_installs", "node")[(self.name,)].inc()
    """) == {"unguarded-obs"}


def test_guarded_family_uses_ok():
    assert rules_hit("""
        class Net:
            def send(self, node):
                if self.obs.enabled:
                    self._m_sent[node, "data"].inc()
                    self.obs.metrics.family("counter", "x", "node")[(node,)].inc()
    """) == set()


def test_binding_a_family_needs_no_guard():
    # A disabled context binds the shared null family: nothing to guard.
    assert rules_hit("""
        class Net:
            def __init__(self, obs):
                self._m_sent = obs.metrics.family("counter", "messages_sent", "node")
                self._m_wait = self.obs.metrics.family("histogram", "wait_ms")
    """) == set()


def test_other_subscripts_are_not_metric_uses():
    assert rules_hit("""
        def read(self, other):
            return self._memo[1], other._m_sent[2], self.m_sent[3]
    """) == set()


def test_unguarded_obs_suppressed():
    findings = lint("""
        def record(obs):
            obs.metrics.gauge("depth").set(1)  # repro: ignore[unguarded-obs]
    """)
    assert findings == []


# -- framework behaviour --------------------------------------------------------


def test_ignore_all_suppresses_everything():
    findings = lint("""
        import time
        t = time.time()  # repro: ignore[all]
    """)
    assert findings == []


def test_include_suppressed_marks_findings():
    findings = lint(
        """
        import time
        t = time.time()  # repro: ignore[wall-clock]
        """,
        include_suppressed=True,
    )
    assert len(findings) == 1
    assert findings[0].suppressed


def test_suppression_is_per_line():
    findings = lint("""
        import time
        a = time.time()  # repro: ignore[wall-clock]
        b = time.time()
    """)
    assert [f.rule for f in findings] == ["wall-clock"]
    assert findings[0].line == 4


def test_suppression_comment_parsing():
    table = suppressions(
        "x = 1  # repro: ignore[wall-clock, set-iteration]\ny = 2\n"
    )
    assert table == {1: {"wall-clock", "set-iteration"}}


def test_rule_names_catalogue():
    assert rule_names() == [
        "blocking-in-service",
        "fuzz-nondeterminism",
        "mutable-default",
        "private-cross-import",
        "set-iteration",
        "unguarded-obs",
        "unseeded-random",
        "wall-clock",
    ]


# -- blocking-in-service ------------------------------------------------------


def test_blocking_sleep_flagged():
    findings = lint("""
        import time
        def backoff():
            time.sleep(0.5)
    """)
    assert [f.rule for f in findings] == ["blocking-in-service"]
    assert findings[0].line == 4


def test_blocking_aliased_sleep_flagged():
    assert rules_hit("""
        from time import sleep
        sleep(1)
    """) == {"blocking-in-service"}


def test_blocking_timed_queue_get_flagged():
    assert rules_hit("""
        def drain(q):
            return q.get(timeout=2.0)
    """) == {"blocking-in-service"}


def test_blocking_timed_join_and_wait_flagged():
    assert rules_hit("""
        def settle(worker, event):
            worker.join(timeout=1.0)
            event.wait(timeout=0.1)
    """) == {"blocking-in-service"}


def test_blocking_untimed_attrs_not_flagged():
    # Without timeout= these are plain method names (dict.get,
    # str.join...) — flagging them would drown the signal.
    assert rules_hit("""
        def ok(d, parts, fut):
            d.get("key")
            ", ".join(parts)
            return fut.result()
    """) == set()


def test_blocking_suppressed():
    findings = lint("""
        import time
        time.sleep(0.1)  # repro: ignore[blocking-in-service] retry backoff
    """)
    assert findings == []


def test_finding_format():
    findings = lint("""
        import time
        t = time.time()
    """)
    text = findings[0].format()
    assert text.startswith("mod.py:3:")
    assert "wall-clock" in text


def test_alias_resolution():
    ctx = LintContext("m.py", "import numpy as np\n")
    assert ctx.aliases["np"] == "numpy"


def test_lint_paths_walks_directories(tmp_path):
    (tmp_path / "ok.py").write_text("x = 1\n")
    (tmp_path / "bad.py").write_text("import time\nt = time.time()\n")
    sub = tmp_path / "__pycache__"
    sub.mkdir()
    (sub / "skipme.py").write_text("import time\nt = time.time()\n")
    findings = lint_paths([str(tmp_path)])
    assert [f.rule for f in findings] == ["wall-clock"]
    assert findings[0].path.endswith("bad.py")


def test_lint_paths_syntax_error_handler(tmp_path):
    (tmp_path / "broken.py").write_text("def f(:\n")
    seen = []
    lint_paths([str(tmp_path)], on_error=lambda p, e: seen.append(p))
    assert len(seen) == 1
    with pytest.raises(SyntaxError):
        lint_paths([str(tmp_path)])


def test_repo_sim_core_obs_p4_lint_clean():
    """The acceptance criterion: the linted packages carry no
    unsuppressed findings."""
    from repro.analysis.cli import default_lint_paths

    findings = lint_paths(default_lint_paths(), default_rules())
    assert findings == [], "\n".join(f.format() for f in findings)


# -- stale suppressions -------------------------------------------------------


def test_stale_suppression_reported_as_own_finding_kind():
    findings = lint("""
        x = 1  # repro: ignore[wall-clock] nothing to silence here
    """)
    assert [f.rule for f in findings] == ["stale-suppression"]
    assert "ignore[wall-clock]" in findings[0].message


def test_live_suppression_not_stale():
    findings = lint("""
        import time
        t = time.time()  # repro: ignore[wall-clock]
    """)
    assert findings == []


def test_mixed_live_and_stale_names_on_one_line():
    findings = lint("""
        import time
        t = time.time()  # repro: ignore[wall-clock, set-iteration]
    """)
    assert [f.rule for f in findings] == ["stale-suppression"]
    assert "ignore[set-iteration]" in findings[0].message


def test_stale_ignore_all_flagged_only_on_full_runs():
    code = """
        x = 1  # repro: ignore[all]
    """
    assert [f.rule for f in lint(code)] == ["stale-suppression"]
    # A --select subset cannot prove the other rules silent.
    subset = [r for r in default_rules() if r.name == "wall-clock"]
    assert lint(code, rules=subset) == []


def test_subset_run_does_not_judge_unselected_rules():
    subset = [r for r in default_rules() if r.name == "wall-clock"]
    findings = lint(
        """
        x = 1  # repro: ignore[set-iteration]
        """,
        rules=subset,
    )
    assert findings == []


def test_docstring_suppression_examples_not_stale():
    findings = lint('''
        def helper():
            """Suppress like::

                t = time.time()  # repro: ignore[wall-clock] profiler
            """
            return 1
    ''')
    assert findings == []


def test_check_stale_opt_out():
    findings = lint(
        """
        x = 1  # repro: ignore[wall-clock]
        """,
        check_stale=False,
    )
    assert findings == []


# -- private-cross-import -----------------------------------------------------


def test_private_cross_import_flags_other_packages_only():
    code = """
        from repro.chaos.runner import TOPOLOGIES, _apply_topo_event
        from repro.serve.spec import _validate
        from repro.serve import __version__
        from .spec import _local
        from os.path import _joinrealpath
    """
    serve = lint_source(
        textwrap.dedent(code), path="src/repro/serve/service.py"
    )
    assert [(f.rule, f.line) for f in serve] == [("private-cross-import", 2)]
    assert "_apply_topo_event" in serve[0].message
    ops = lint_source(textwrap.dedent(code), path="src/repro/ops/session.py")
    assert [f.line for f in ops] == [2, 3]
    # Files outside the repro package (tests, benchmarks) are exempt.
    assert lint_source(textwrap.dedent(code), path="tests/test_x.py") == []


def test_repo_has_no_private_cross_imports():
    import os

    import repro

    rule = [r for r in default_rules() if r.name == "private-cross-import"]
    findings = lint_paths([os.path.dirname(os.path.abspath(repro.__file__))], rule)
    assert findings == [], [f"{f.path}:{f.line} {f.message}" for f in findings]


# -- fuzz-nondeterminism ------------------------------------------------------


def test_fuzz_rule_fires_only_under_fuzz_paths():
    code = """
        import time
        t = time.time()
    """
    inside = lint_source(
        textwrap.dedent(code), path="src/repro/fuzz/gen.py"
    )
    outside = lint_source(
        textwrap.dedent(code), path="src/repro/serve/service.py"
    )
    assert {f.rule for f in inside} == {"wall-clock", "fuzz-nondeterminism"}
    assert {f.rule for f in outside} == {"wall-clock"}
    fuzz_finding = next(
        f for f in inside if f.rule == "fuzz-nondeterminism"
    )
    assert fuzz_finding.message.startswith("[wall-clock]")


def test_fuzz_rule_covers_unseeded_rng_and_set_iteration():
    code = """
        import numpy as np

        def pick(options):
            np.random.shuffle(options)
            for item in set(options):
                yield item
    """
    findings = lint_source(
        textwrap.dedent(code), path="src/repro/fuzz/gen.py"
    )
    fuzz = [f for f in findings if f.rule == "fuzz-nondeterminism"]
    assert {f.message.split("]")[0] + "]" for f in fuzz} == {
        "[unseeded-random]", "[set-iteration]",
    }


def test_fuzz_rule_registered():
    assert "fuzz-nondeterminism" in rule_names()


def test_fuzz_package_passes_its_own_lint():
    import os

    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    findings = lint_paths([os.path.join(root, "fuzz")])
    assert findings == [], [
        f"{f.path}:{f.line} {f.rule} {f.message}" for f in findings
    ]
