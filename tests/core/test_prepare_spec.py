"""``P4UpdateController.prepare_update`` against the spec of §3.2, §7.5
and §9.1 in ``tests/core/prep_spec.py``, over two enumerated domains.

* **Good pairs:** every ordered pair of simple paths of at most
  ``MAX_HOPS`` hops that share both endpoints on a 3×3 grid, equal
  paths included, with every ``update_type`` and ``stage_tag``, on a
  fresh record and on one whose pending update the request supersedes;
  and once more with ``congestion_aware=False`` (a fresh record, the
  §7.5 choice, no stage tag).
* **Bad pairs:** every node sequence of 1–3 nodes over a 4-node clique,
  as P_o and as P_n, with every ``update_type``, on a record with a
  pending update (a rejection must leave it standing).  Most are
  rejected; the pairs that happen to be fine are checked in full too.

Each case registers a flow of its own on one controller, sets its Flow-DB
record, runs one request and compares what it returned (every field and
its Python type) and left behind (pending path and version, version
counter, the re-trigger store) with the spec's prediction.
"""

from __future__ import annotations

import collections
import functools
import itertools
from typing import Any, Iterator

from repro.core.controller import P4UpdateController
from repro.core.messages import UpdateType
from repro.harness.build import build_p4update_network
from repro.topo.graph import Topology
from repro.traffic.flows import Flow
from tests.core import prep_spec

MAX_HOPS = 6
SIZE = 2.5
UPDATE_TYPES = (None, UpdateType.SINGLE, UpdateType.DUAL)
STAGE_TAGS = (None, 0, 1)
GRID = {f"n{r}{c}": (r, c) for r in range(3) for c in range(3)}
CLIQUE = ("a", "b", "c", "d")

GOOD_PAIRS = 3_652
BAD_SEQUENCES = 4 + 4**2 + 4**3
DOMAIN_SIZES = {
    "good": GOOD_PAIRS * (len(UPDATE_TYPES) * len(STAGE_TAGS) * 2 + 1),
    "bad": BAD_SEQUENCES**2 * len(UPDATE_TYPES),
}


def simple_paths(edges: list[tuple[str, str]], max_hops: int) -> Iterator[tuple[str, ...]]:
    """Every simple path of 1..``max_hops`` hops, from every node."""
    adjacent = collections.defaultdict(list)
    for a, b in edges:
        adjacent[a].append(b)
        adjacent[b].append(a)

    def walk(path: tuple[str, ...]) -> Iterator[tuple[str, ...]]:
        if len(path) > 1:
            yield path
        if len(path) <= max_hops:
            for node in adjacent[path[-1]]:
                if node not in path:
                    yield from walk(path + (node,))

    for node in sorted(adjacent):
        yield from walk((node,))


GRID_EDGES = [
    (a, b) for a, b in itertools.combinations(GRID, 2)
    if abs(GRID[a][0] - GRID[b][0]) + abs(GRID[a][1] - GRID[b][1]) == 1
]


def good_pairs() -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    by_ends = collections.defaultdict(list)
    for path in simple_paths(GRID_EDGES, MAX_HOPS):
        by_ends[path[0], path[-1]].append(path)
    return [pair for paths in by_ends.values() for pair in itertools.product(paths, repeat=2)]


def bad_sequences() -> list[tuple[str, ...]]:
    return [seq for n in (1, 2, 3) for seq in itertools.product(CLIQUE, repeat=n)]


class Bench:
    """One controller on one network; each case gets a flow of its own."""

    def __init__(self, edges: list[tuple[str, str]]) -> None:
        topo = Topology.from_edges("prep-spec", [(a, b, 1.0) for a, b in edges])
        deployment = build_p4update_network(topo)
        self.controller: P4UpdateController = deployment.controller
        self.placeholder = list(edges[0])
        wiring = deployment.network.port_towards
        self.ports = {
            (x, y): wiring(x, y) for a, b in edges for x, y in ((a, b), (b, a))
        }
        self.flows = itertools.count(1)

    def case(
        self, old, new, update_type, stage_tag, pending: bool, congestion_aware: bool = True,
    ) -> tuple[dict, dict]:
        """``(what prepare_update did, what the spec predicts)``."""
        controller, fid = self.controller, next(self.flows)
        src, dst = self.placeholder
        record = controller.register_flow(Flow(fid, src, dst, SIZE, old_path=[src, dst]))
        # Straight into the Flow DB: Flow() itself refuses a bad path.
        record.current_path = list(old)
        held = None
        if pending:
            held = (controller.versions.next_version(fid), [src, dst])
            record.pending_version, record.pending_path = held
            controller._prepared[fid, held[0]] = prep_spec.PENDING
            controller._retriggers[fid, held[0]] = 1
        state = prep_spec.Record(fid, list(old), SIZE, controller.versions.current(fid), held)
        want = prep_spec.prepare(state, list(new), update_type, stage_tag, self.ports)
        try:
            returned: Any = controller.prepare_update(
                fid, list(new), update_type, congestion_aware, stage_tag
            )
            prepared = vars(returned)
        except Exception as exc:  # noqa: BLE001 - the exception is the result
            returned, prepared = None, (type(exc).__name__, str(exc))
        got = {
            "prepared": prepared, "pending_path": record.pending_path,
            "pending_version": record.pending_version, "version": controller.versions.current(fid),
            "store": {key: prep_spec.RETURNED if p is returned else p
                      for key, p in controller._prepared.items()},
            "retriggers": set(controller._retriggers),
        }
        del controller.flow_db[fid]
        controller._prepared.clear()
        controller._retriggers.clear()
        return typed(got), typed(want)


def typed(outcome: dict) -> dict:
    """``outcome`` with the types of a prepared update's fields and of
    each UIM's beside them: ``True == 1`` and ``2 == 2.0`` may not hide
    a drift."""
    prepared = outcome["prepared"]
    if not isinstance(prepared, dict):
        return outcome
    types = {name: type(value) for name, value in prepared.items()}
    types["uims"] = tuple(tuple(map(type, uim)) for uim in prepared["uims"])
    return {**outcome, "types": types}


def good_domain() -> Iterator[tuple]:
    """``(old, new, update_type, stage_tag, pending, congestion_aware)``."""
    for old, new in good_pairs():
        for update_type, stage_tag, pending in itertools.product(
            UPDATE_TYPES, STAGE_TAGS, (False, True)
        ):
            yield old, new, update_type, stage_tag, pending, True
        yield old, new, None, None, False, False


def bad_domain() -> Iterator[tuple]:
    for old, new in itertools.product(bad_sequences(), repeat=2):
        for update_type in UPDATE_TYPES:
            yield old, new, update_type, None, True, True


DOMAINS = {
    "good": (GRID_EDGES, good_domain),
    "bad": (list(itertools.combinations(CLIQUE, 2)), bad_domain),
}


@functools.cache
def enumeration() -> dict[str, Any]:
    """Run both domains once: per domain the disagreements and the size;
    the type ``update_type=None`` chose per good pair; the (stage tag,
    superseding) combinations that prepared; and each rejection text
    with whether it spent a version number."""
    found: dict[str, list] = {name: [] for name in DOMAINS}
    sizes = dict.fromkeys(DOMAINS, 0)
    chosen: dict[tuple, UpdateType] = {}
    prepared_with: set = set()
    rejections: set = set()
    for name, (edges, domain) in DOMAINS.items():
        bench = Bench(edges)
        for point in domain():
            sizes[name] += 1
            got, want = bench.case(*point)
            if got != want:
                found[name].append((point, got, want))
            old, new, update_type, stage_tag, pending, _ = point
            prepared = got["prepared"]
            if isinstance(prepared, tuple):
                # A fresh record holds version 1, a pending update version 2.
                rejections.add((prepared[1], got["version"] > 1 + pending))
            elif name == "good":
                prepared_with.add((stage_tag, pending))
                if update_type is None:
                    chosen[old, new] = prepared["update_type"]
    return {"found": found, "sizes": sizes, "chosen": chosen,
            "prepared_with": prepared_with, "rejections": rejections}


def _no_disagreement(name: str) -> None:
    run = enumeration()
    assert run["sizes"][name] == DOMAIN_SIZES[name]
    found = run["found"][name]
    assert not found, (
        f"{len(found)} of {run['sizes'][name]} {name} cases disagree; "
        "first: point {}\n  controller {}\n  spec       {}".format(*found[0])
    )


def test_every_good_pair_matches_the_spec():
    _no_disagreement("good")


def test_every_bad_pair_matches_the_spec():
    _no_disagreement("bad")


def test_the_good_pairs_cover_section_3_2_and_the_9_1_threshold():
    """Backward segments, 2–7 gateways, forward-only pairs on both sides
    of the five-node threshold; and the type the controller chose for
    ``update_type=None``: SL for forward-only pairs up to five changed
    nodes, DL past it and for every pair with a backward segment."""
    pairs = good_pairs()
    assert len(pairs) == GOOD_PAIRS
    census: collections.Counter = collections.Counter()
    gateways = set()
    chose = collections.defaultdict(set)
    for old, new in pairs:
        pair = prep_spec.analyse(old, new)
        forward_only = all(pair.forward)
        gateways.add(len(pair.gateways))
        census[forward_only, min(len(pair.changed), 6)] += 1
        chose[forward_only, len(pair.changed) <= 5].add(enumeration()["chosen"][old, new])
    assert gateways == set(range(2, 8))
    backward = sum(n for (forward_only, _), n in census.items() if not forward_only)
    assert (census[True, 5], census[True, 6], backward) == (288, 96, 488)
    assert chose == {
        (True, True): {UpdateType.SINGLE}, (True, False): {UpdateType.DUAL},
        (False, True): {UpdateType.DUAL}, (False, False): {UpdateType.DUAL},
    }


def test_the_domains_reach_every_stage_tag_supersession_and_rejection():
    run = enumeration()
    assert run["prepared_with"] == set(itertools.product(STAGE_TAGS, (False, True)))
    revisiting = [list(seq) for seq in bad_sequences() if len(set(seq)) < len(seq)]
    texts = [
        "a path needs at least two nodes", "old and new paths must share ingress and egress",
        *(f"path revisits a node: {seq}" for seq in revisiting),
    ]
    # Each text is raised, and no rejection spends a version number.
    assert run["rejections"] == set(itertools.product(texts, (False,)))
