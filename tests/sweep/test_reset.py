"""The global-state audit behind ``repro.sim.reset_global_state``.

The sweep's per-process determinism rests on one claim: the only
module-level mutable counter in ``src/repro`` is the packet-id stream
in ``repro.p4.packet`` (everything else — metric registries, engine
event counters, baseline sequence numbers — is instance state, rebuilt
per deployment).  Since the ops checkpointing work that stream is a
plain int with reset *and* snapshot hooks: ``itertools.count``
iterators can be neither observed nor pickled, so the audit now bans
them outright — a counter must be a readable value registered with
both ``repro.sim.register_global_reset`` and
``repro.sim.snapshot.register_global_snapshot``.

One module-level store is filled at run time and deliberately *not*
reset: ``repro.topo.graph._STRUCTURE_MEMO``, a pure function of graph
structure (``tests/topo/test_structure_memo.py`` holds it to that).
The audit names it, so a second such store cannot arrive unnoticed."""

import glob
import os
import re

from repro.p4.packet import Packet
from repro.sim.reset import (
    register_global_reset,
    registered_resets,
    reset_global_state,
)

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))),
    "src", "repro",
)

#: Module-level statements that create mutable cross-run state.
_COUNTER_PATTERN = re.compile(
    r"^[A-Za-z_][A-Za-z0-9_]*\s*=\s*(?:itertools\.)?count\(", re.MULTILINE
)

#: Module-level containers that start empty, i.e. are filled later.
_STORE_PATTERN = re.compile(
    r"^([A-Za-z_][A-Za-z0-9_]*)(?:\s*:[^=\n]+)?\s*=\s*"
    r"(?:\{\}|\[\]|dict\(\)|list\(\)|set\(\))\s*$",
    re.MULTILINE,
)


def test_structure_memo_is_the_one_run_filled_store_reset_leaves_alone():
    stores = [
        f"{os.path.relpath(path, SRC)}:{name}"
        for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)
        for name in _STORE_PATTERN.findall(open(path, encoding="utf-8").read())
    ]
    assert sorted(stores) == [
        # Registries, filled by registration at import time, not by runs.
        "analysis/linter.py:_REGISTRY",
        "sim/reset.py:_RESET_HOOKS",
        "sim/snapshot.py:_SNAPSHOT_HOOKS",
        # Filled by runs; survives reset because its answers depend on
        # graph structure alone (see the repro.sim.reset docstring).
        "topo/graph.py:_STRUCTURE_MEMO",
    ]
    assert not [name for name in registered_resets() if "memo" in name]


def test_no_module_level_count_iterators():
    offenders = {}
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        hits = _COUNTER_PATTERN.findall(open(path, encoding="utf-8").read())
        if hits:
            offenders[os.path.relpath(path, SRC)] = hits
    assert not offenders, (
        "module-level itertools.count found — checkpointable counters "
        "must be plain values with reset + snapshot hooks (see "
        f"repro.p4.packet._next_packet_id for the shape): {offenders}"
    )


def test_default_registry_covers_packet_ids():
    assert "p4.packet_ids" in registered_resets()


def test_reset_restarts_packet_numbering():
    reset_global_state()
    first = Packet().packet_id
    Packet()
    reset_global_state()
    again = Packet().packet_id
    assert again == first == 1


def test_register_is_idempotent_per_name_and_hooks_run():
    calls = []
    register_global_reset("test.probe", lambda: calls.append("a"))
    # Re-registering the same name replaces, not duplicates.
    register_global_reset("test.probe", lambda: calls.append("b"))
    try:
        assert registered_resets().count("test.probe") == 1
        reset_global_state()
        assert calls == ["b"]
    finally:
        # Leave the global registry as we found it.
        from repro.sim import reset as reset_module

        reset_module._RESET_HOOKS[:] = [
            (name, hook) for name, hook in reset_module._RESET_HOOKS
            if name != "test.probe"
        ]
