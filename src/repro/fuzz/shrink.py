"""Automatic shrinking: delta-debug a failing case to a minimal repro.

Greedy, deterministic reduction: enumerate candidate simplifications
of the current payload in a fixed order (structural drops first —
plans, installs, notify edges, fault events, requests — then numeric
reductions toward documented floors), accept the first candidate that
still fails with the **same failure key** (same outcome, oracle and
violation kinds, see :func:`repro.fuzz.oracles.failure_key`) while
strictly decreasing the shrink measure, and repeat until no candidate
is accepted.

The measure is ``(canonical payload length, total numeric mass)``
compared lexicographically, so:

* **size is monotonically non-increasing** along the accepted-step
  trajectory (the property tests assert this);
* the loop terminates without an iteration cap — every accepted step
  strictly decreases a well-founded measure (a global evaluation
  budget still guards against pathological payloads);
* shrinking uses **no randomness at all**, so a fixed input shrinks
  to a byte-identical minimal case on every run.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Iterator, Optional, Sequence

from repro.fuzz.gen import FuzzCase, canonical_payload
from repro.fuzz.lanes import resolve_lane
from repro.fuzz.oracles import OracleVerdict, classify, failure_key

#: Hard cap on oracle evaluations per shrink (safety net only; real
#: payloads terminate long before this).
MAX_EVALUATIONS = 2000

Classifier = Callable[[FuzzCase], OracleVerdict]


def numeric_mass(value: Any) -> float:
    """Sum of the magnitudes of every numeric leaf (bools excluded)."""
    if isinstance(value, bool):
        return 0.0
    if isinstance(value, (int, float)):
        return abs(float(value))
    if isinstance(value, dict):
        return sum(numeric_mass(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return sum(numeric_mass(v) for v in value)
    return 0.0


def shrink_measure(payload: dict) -> tuple[int, float]:
    """The well-founded shrink ordering: size first, then magnitude."""
    return (len(canonical_payload(payload)), numeric_mass(payload))


def shrink_case(
    case: FuzzCase,
    classifier: Classifier = classify,
    on_step: Optional[Callable[[FuzzCase, OracleVerdict], None]] = None,
    max_evaluations: int = MAX_EVALUATIONS,
) -> FuzzCase:
    """Minimise ``case`` while preserving its failure key.

    Returns the (possibly unchanged) minimal case.  A case whose
    original classification is ``pass`` is returned untouched.
    ``on_step`` observes every accepted intermediate (for the
    monotonicity property tests).
    """
    candidates = resolve_lane(case.kind).shrink_candidates
    original = classifier(case)
    if original.outcome == "pass":
        return case
    target = failure_key(case.kind, original)

    current = case
    current_measure = shrink_measure(case.payload)
    evaluations = 0
    while evaluations < max_evaluations:
        accepted = False
        for payload in candidates(current.payload):
            measure = shrink_measure(payload)
            if measure >= current_measure:
                continue
            candidate = FuzzCase(
                kind=current.kind,
                name=current.name,
                seed=current.seed,
                payload=payload,
            )
            evaluations += 1
            verdict = classifier(candidate)
            if failure_key(candidate.kind, verdict) != target:
                if evaluations >= max_evaluations:
                    break
                continue
            current = candidate
            current_measure = measure
            if on_step is not None:
                on_step(current, verdict)
            accepted = True
            break
        if not accepted:
            break
    return current


# -- candidate builders the lanes compose -------------------------------------


def node_at(payload: dict, path: Sequence[Any]) -> Any:
    """The node ``path`` leads to, or None when a step is missing."""
    node: Any = payload
    for step in path:
        node = node.get(step) if isinstance(node, dict) else node[step]
        if node is None:
            return None
    return node


def set_value(payload: dict, path: list[Any], key: str, value: Any) -> dict:
    """A copy of ``payload`` with ``key`` under ``path`` set to ``value``."""
    out = copy.deepcopy(payload)
    node_at(out, path)[key] = value
    return out


def reset(payload: dict, path: list[Any], key: str, default: Any) -> Iterator[dict]:
    """``key`` under ``path`` put back to ``default``; nothing when it
    already is, or when the payload has no node at ``path``."""
    node = node_at(payload, path)
    if node is not None and node.get(key, default) != default:
        yield set_value(payload, path, key, default)


def list_drops(payload: dict, path: list[Any], minimum: int = 0) -> Iterator[dict]:
    """One candidate per element of the list at ``path``, that element
    dropped; nothing once the list is down to ``minimum`` elements."""
    node = node_at(payload, path)
    if not isinstance(node, list) or len(node) <= minimum:
        return
    # Last-first keeps earlier indices valid in the reader's mind when
    # diffing successive shrink steps.
    for index in range(len(node) - 1, -1, -1):
        out = copy.deepcopy(payload)
        del node_at(out, path)[index]
        yield out


def halve(
    payload: dict, path: list[Any], key: str, floor: float, integer: bool = False
) -> Iterator[dict]:
    """The numeric ``key`` under ``path`` halved toward ``floor``."""
    node = node_at(payload, path)
    value = None if node is None else node.get(key)
    if value is None:
        return
    current = float(value)
    if current <= floor:
        return
    halved = max(floor, current / 2.0)
    shrunk: Any = int(halved) if integer else round(halved, 1)
    yield set_value(payload, path, key, shrunk)
