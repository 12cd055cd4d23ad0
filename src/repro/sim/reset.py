"""Process-wide mutable state and its single reset point.

The simulator is engineered so that *all* run state lives in the
objects of one deployment (engine, network, nodes, RNG streams), which
is what makes same-seed runs bit-identical.  The audited exceptions —
module-level counters that survive across runs in one process — are
registered here so multi-run drivers (``repro.chaos.runner``, the
``repro.sweep`` fleet executor, tests) can call one function,
:func:`reset_global_state`, and get the same numbering a fresh
interpreter would produce.

Audit result (kept current by ``tests/sweep/test_reset.py``):

* ``repro.p4.packet._packet_ids`` — debug packet numbering; packet ids
  appear in ``describe()`` strings which end up in traces, so they
  must restart at 1 for cross-process trace-signature equality.
* ``repro.obs`` — carries **no** module-level counters: span and trace
  identity is structural (nesting/order), metric instruments live in
  per-run registries, and :data:`repro.obs.context.NULL_OBS` is
  stateless by construction.
* ``repro.sim.engine.Engine`` / the baseline controllers number events
  and rounds with *instance* counters, recreated per deployment.
* ``repro.topo.graph._STRUCTURE_MEMO`` — the one run-filled store that
  is deliberately **not** reset.  It maps an exact graph structure
  (node order, adjacency order, edge latencies) to the answers of pure
  path queries on it, so a warm and a cold process return equal values
  and no trace, counter or pickled byte can tell them apart
  (``Topology.path_cache_stats()`` counts per instance, in front of
  it).  Clearing it before every run — ``run_service`` resets each
  time — would only re-pay networkx for the same answers.

New global counters must be registered with
:func:`register_global_reset` next to their definition; the sweep
worker initializer and the serial execution path both call
:func:`reset_global_state` before every shard, which is what keeps
"N workers" and "1 worker" executions byte-identical.
"""

from __future__ import annotations

from typing import Callable

_RESET_HOOKS: list[tuple[str, Callable[[], None]]] = []


def register_global_reset(name: str, hook: Callable[[], None]) -> None:
    """Register a named reset hook (idempotent per name)."""
    for i, (existing, _) in enumerate(_RESET_HOOKS):
        if existing == name:
            _RESET_HOOKS[i] = (name, hook)
            return
    _RESET_HOOKS.append((name, hook))


def registered_resets() -> list[str]:
    """Names of every registered hook, in registration order."""
    _ensure_defaults()
    return [name for name, _ in _RESET_HOOKS]


def reset_global_state() -> None:
    """Restore every registered module-level counter to its
    fresh-interpreter value.

    Call this before a run whenever runs share a process (or a forked
    child inherits a used parent): it is the whole-process analogue of
    building a fresh deployment.
    """
    _ensure_defaults()
    for _name, hook in _RESET_HOOKS:
        hook()


def _ensure_defaults() -> None:
    """Lazily register the audited built-in hooks (import-cycle-free)."""
    if any(name == "p4.packet_ids" for name, _ in _RESET_HOOKS):
        return
    from repro.p4.packet import reset_packet_ids

    register_global_reset("p4.packet_ids", reset_packet_ids)
