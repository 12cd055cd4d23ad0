"""Signature format v2 tells apart every pair of traces format v1 does.

The argument (``docs/ARCHITECTURE.md``, "Trace signature, format v2"):
v1 is a function of the trace's rows, and v2's bytes name the rows —
each block is one self-delimiting ``marshal`` object that
``marshal.load`` reads back value for value and type for type — so two
traces with equal v2 bytes have equal rows and equal v1 signatures.
The tests below check the two halves on real traces: the bytes decode
to the rows of every reference run and of an adversarial trace, and
over every trace the fuzz corpus replay signs, the reference runs and
one-field perturbations of them, no v2 signature stands for two v1
signatures.

v2 is finer in one way only: it reads a detail's keys in recording
order, where v1 sorted them.  ``test_record_sites_keep_one_key_order_per_kind``
keeps that from splitting one behaviour into two signatures: every
``trace.record`` call site of a kind names its keys in one order.
"""

from __future__ import annotations

import ast
import math
import pathlib

import pytest

import repro.serve.service as service
import repro.sim.trace as trace_module
from repro.fuzz.corpus import corpus_files, replay_file
from repro.serve.spec import load_serve_spec
from repro.sim.trace import Trace, TraceEvent, trace_signature
from tests.chaos.reference_signature import (
    decode_v2,
    reference_trace_signature_v1,
    v2_bytes,
)
from tests.chaos.test_signature_shapes import adversarial
from tests.fuzz.test_compete_lane import RECOVERY_AGAINST_NO_RECOVERY
from tests.reference_scenarios import SCENARIOS, stock_outcome

SRC = pathlib.Path(trace_module.__file__).resolve().parents[1]
CORPUS = pathlib.Path(__file__).resolve().parents[1] / "fuzz" / "corpus"


def _rows(events) -> list[tuple]:
    return [tuple(event) for event in events]


@pytest.mark.parametrize("name", [*sorted(SCENARIOS), "adversarial"])
def test_v2_bytes_decode_to_the_rows(name):
    events = list(adversarial()) if name == "adversarial" else stock_outcome(name)["trace"]
    # repr, not ==: nan != nan, and == would let 1 == 1.0 == True pass.
    assert repr(decode_v2(v2_bytes(events))) == repr(_rows(events))


def _corpus_traces(monkeypatch) -> list[list[TraceEvent]]:
    """Every trace the fuzz corpus replay signs, as signed, and those of
    the compete cases that left the corpus.  ``Trace.stream`` is a no-op
    here, so every run keeps the rows its ``Trace.signature`` signs."""
    signed: list[list[TraceEvent]] = []
    sign = Trace.signature

    def recording(trace):
        signed.append(list(trace))
        return sign(trace)

    monkeypatch.setattr(Trace, "stream", lambda trace: None)
    monkeypatch.setattr(Trace, "signature", recording)
    for path in corpus_files(str(CORPUS)):
        replay_file(path)
    for serve, strategies, _pairs in RECOVERY_AGAINST_NO_RECOVERY:
        for strategy in strategies:
            service.run_service(load_serve_spec(dict(serve, strategy=strategy)))
    return signed


def _event(event: TraceEvent, **change) -> TraceEvent:
    return event._replace(**change)


def _perturbed(events: list[TraceEvent]) -> list[list[TraceEvent]]:
    """One-field changes of ``events`` that v1 tells apart from it."""
    out = []
    for at in (0, len(events) // 2, len(events) - 1):
        event = events[at]
        edits = [
            _event(event, time=math.nextafter(event.time, math.inf)),
            _event(event, node=event.node + "'"),
            _event(event, detail={**event.detail, "extra": None}),
        ]
        for key, value in event.detail.items():
            if isinstance(value, bool) or value is None:
                edits.append(_event(event, detail={**event.detail, key: int(bool(value))}))
            elif isinstance(value, int):
                edits.append(_event(event, detail={**event.detail, key: float(value)}))
            elif isinstance(value, str):
                edits.append(_event(event, detail={**event.detail, key: (value,)}))
        out += [events[:at] + [edit] + events[at + 1:] for edit in edits]
        out.append(events[:at] + events[at + 1:])
        out.append(events[:at] + [event] + events[at:])
    return out


def test_v2_tells_apart_every_pair_of_traces_v1_does(monkeypatch):
    traces = _corpus_traces(monkeypatch)
    assert len(traces) >= 10                    # chaos, serve, ops, compete
    for name in sorted(SCENARIOS):
        events = stock_outcome(name)["trace"]
        traces += [events, *_perturbed(events)]
    v1_of: dict[str, set[str]] = {}
    for events in traces:
        v1_of.setdefault(trace_signature(events), set()).add(
            reference_trace_signature_v1(events)
        )
    assert all(len(v1) == 1 for v1 in v1_of.values())
    # And no finer on these traces: one v2 signature per v1 signature.
    assert len(v1_of) == len(set().union(*v1_of.values())) > 200


def test_detail_key_order_is_read_by_v2_only():
    a = [TraceEvent(1.0, "k", "n", {"a": 1, "b": 2})]
    b = [TraceEvent(1.0, "k", "n", {"b": 2, "a": 1})]
    assert reference_trace_signature_v1(a) == reference_trace_signature_v1(b)
    assert trace_signature(a) != trace_signature(b)


def _record_sites() -> dict[str, list[tuple[str, tuple[str, ...]]]]:
    """kind -> (site, keyword names in order) for every ``*.trace.record``
    / ``trace.record`` call under ``src/repro``."""
    sites: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "record"
                and ast.unparse(node.func.value).split(".")[-1] == "trace"
            ):
                continue
            keys = tuple(k.arg for k in node.keywords if k.arg is not None)
            kind = node.args[1]
            if isinstance(kind, ast.Constant):
                name = kind.value
            elif isinstance(kind, ast.Name) and hasattr(trace_module, kind.id):
                name = getattr(trace_module, kind.id)
            else:
                # Only a site with no detail may pass a computed kind.
                assert not keys, f"{path.name}:{node.lineno} computes its kind"
                continue
            site = f"{path.relative_to(SRC)}:{node.lineno}"
            sites.setdefault(name, []).append((site, keys))
    return sites


def test_record_sites_keep_one_key_order_per_kind():
    sites = _record_sites()
    assert len(sites) >= 15 and "rule_change" in sites
    for kind, recorded in sites.items():
        before: dict[tuple[str, str], str] = {}
        for site, keys in recorded:
            for i, first in enumerate(keys):
                for second in keys[i + 1:]:
                    assert (second, first) not in before, (
                        f"{kind}: {site} names {first!r} before {second!r}, "
                        f"{before[(second, first)]} the other way round"
                    )
                    before[(first, second)] = site
