"""A complete fuzz lane in one test-side file (see test_lanes.py): a
bag of numbers that must not sum past a limit."""

import copy

from repro.fuzz.gen import pick
from repro.fuzz.lanes import FuzzLane
from repro.fuzz.oracles import OracleVerdict
from repro.fuzz.shrink import list_drops

LIMIT = 20


def _generate(rng):
    count = int(rng.integers(1, 6))
    return {"numbers": [int(rng.integers(0, 10)) for _ in range(count)]}


def _perturb(payload, donor, rng):
    payload["numbers"].append(int(pick(rng, (1, 5, 9))))


def _splice(payload, donor, rng):
    payload["numbers"] += donor["numbers"][:2]


def _shrink_candidates(payload):
    yield from list_drops(payload, ["numbers"])
    for index, value in enumerate(payload["numbers"]):
        out = copy.deepcopy(payload)
        out["numbers"][index] = value // 2
        yield out


def _oracle(payload):
    numbers = payload["numbers"]
    coverage = (f"toy:len:{len(numbers)}", f"toy:max:{max(numbers, default=0)}")
    if sum(numbers) > LIMIT:
        return OracleVerdict("violation", "toy", ("toy:over-limit",), coverage)
    return OracleVerdict("pass", "toy", (), coverage)


TOY = FuzzLane(
    name="toy",
    generate=_generate,
    mutations=(("knob-perturb", _perturb, False), ("splice", _splice, True)),
    shrink_candidates=_shrink_candidates,
    oracle=_oracle,
)
