"""Cross-system byte identity, pinned at the commit before the three
native systems were folded into one ``System`` record, one builder and
one ``run_experiment`` body.

Every cell of ``pinned_systems.json`` is one ``run_experiment`` call
(all five ``SYSTEMS`` x {b4, internet2, fattree4} x {single, multi} x
seeds {0, 1} x congestion on/off) reduced to: every ``ExperimentResult``
field but the wall-clock ``prep_time_s``, the deployment's
``trace_signature``, the engine's processed-event count and — on seed 1,
which runs with observability on — the span tree with names, attrs and
simulated start/end.  ``run_fig2`` / ``run_fig4`` are pinned for both
systems they support.  The deployment is captured by wrapping the three
builder names where they are bound, which is also how the perf ledger
reaches them.  The trace signatures were re-recorded twice, when
signature format v2 replaced v1 and when every ``msg_*`` record gained
its ``type`` key (``docs/ARCHITECTURE.md``); no other field moved.
The third deliberate re-recording came when an ez-Segway switch began
keeping one pending re-evaluation for all its capacity-deferred moves
instead of one per move: fewer polls (``events``) and a static-order
relaxation that no longer fires n times too early moved the five
``ezsegway/*/multi/*/cong`` cells b4 s1, internet2 s0 and s1, fattree4
s0 and s1 (``events``, ``trace_signature``, ``per_flow_digest``, and
``total_update_time_ms`` in b4 s1, internet2 s1 and fattree4 s1); no
other cell moved.

Regenerate only for a deliberate behaviour change::

    PYTHONPATH=src python tests/harness/test_pinned_systems.py
"""

import dataclasses
import hashlib
import json
import pathlib
import sys

import pytest

from repro.chaos.runner import trace_signature
from repro.harness import baselines_build, build
from repro.harness.experiment import SYSTEMS, run_experiment
from repro.harness.fig_experiments import run_fig2, run_fig4
from repro.harness.sweep_kind import seeded_scenario
from repro.obs import make_obs
from repro.params import SimParams

PINNED_PATH = pathlib.Path(__file__).with_name("pinned_systems.json")

TOPOLOGIES = ("b4", "internet2", "fattree4")
SCENARIOS = ("single", "multi")
SEEDS = (0, 1)
BUILDERS = (
    (build, "build_p4update_network"),
    (baselines_build, "build_ezsegway_network"),
    (baselines_build, "build_central_network"),
)

CELLS = [
    (system, topology, scenario, seed, congestion)
    for system in SYSTEMS
    for topology in TOPOLOGIES
    for scenario in SCENARIOS
    for seed in SEEDS
    for congestion in (True, False)
]


def _cell_id(cell) -> str:
    system, topology, scenario, seed, congestion = cell
    return f"{system}/{topology}/{scenario}/s{seed}/{'cong' if congestion else 'nocong'}"


def _digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _span_tree(span) -> list:
    return [
        span.name, dict(span.attrs), span.sim_start, span.sim_end,
        [_span_tree(child) for child in span.children],
    ]


class _CapturedBuilds:
    """Wraps the three builder names in every module that bound them
    and keeps what they return."""

    def __init__(self) -> None:
        self.deployments: list = []
        self._patched: list = []

    def __enter__(self) -> "_CapturedBuilds":
        for owner, name in BUILDERS:
            original = getattr(owner, name)

            def capturing(*args, _original=original, **kwargs):
                deployment = _original(*args, **kwargs)
                self.deployments.append(deployment)
                return deployment

            for module in list(sys.modules.values()):
                if getattr(module, "__dict__", {}).get(name) is original:
                    self._patched.append((module, name, original))
                    setattr(module, name, capturing)
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)


def compute_cell(cell) -> dict:
    system, topology, scenario_kind, seed, congestion = cell
    try:
        scenario = seeded_scenario(topology, scenario_kind, seed)
    except RuntimeError as exc:
        return {"scenario_error": str(exc)}
    params = SimParams(seed=seed)
    if scenario_kind == "single":
        params = params.with_dionysus_install_delay()
    obs = make_obs() if seed == 1 else None
    with _CapturedBuilds() as captured:
        result = run_experiment(
            system, scenario, params=params, congestion_aware=congestion,
            obs=obs,
        )
    (deployment,) = captured.deployments
    fields = dataclasses.asdict(result)
    del fields["prep_time_s"]
    per_flow = fields.pop("per_flow_ms")
    out = dict(
        fields,
        flows=len(scenario.flows),
        per_flow_digest=_digest(sorted(per_flow.items())),
        trace_signature=trace_signature(deployment.network.trace),
        events=deployment.network.engine.processed_events,
    )
    if obs is not None:
        out["spans"] = [_span_tree(root) for root in obs.spans.roots]
    return out


def compute_fig(name: str, system: str) -> dict:
    result = (run_fig2 if name == "fig2" else run_fig4)(system)
    fields = dataclasses.asdict(result)
    return {
        key: value if isinstance(value, (str, int, float, bool)) else _digest(value)
        for key, value in fields.items()
    }


FIG_CELLS = [
    (name, system) for name in ("fig2", "fig4") for system in ("p4update", "ezsegway")
]


def compute_all() -> dict:
    cells = {_cell_id(cell): compute_cell(cell) for cell in CELLS}
    cells.update(
        {f"{name}/{system}": compute_fig(name, system) for name, system in FIG_CELLS}
    )
    return cells


def _roundtrip(value):
    """What the value looks like after a trip through the JSON file."""
    return json.loads(json.dumps(value))


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PINNED_PATH.read_text())


def test_pinned_file_covers_every_cell(pinned):
    expected = {_cell_id(cell) for cell in CELLS}
    expected |= {f"{name}/{system}" for name, system in FIG_CELLS}
    assert set(pinned) == expected
    assert len(pinned) == 124


@pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
def test_run_experiment_cell_is_byte_identical(cell, pinned):
    assert _roundtrip(compute_cell(cell)) == pinned[_cell_id(cell)]


@pytest.mark.parametrize("name,system", FIG_CELLS)
def test_fig_driver_is_byte_identical(name, system, pinned):
    assert _roundtrip(compute_fig(name, system)) == pinned[f"{name}/{system}"]


if __name__ == "__main__":
    PINNED_PATH.write_text(
        json.dumps(compute_all(), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {PINNED_PATH}")
