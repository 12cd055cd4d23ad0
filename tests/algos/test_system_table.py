"""One row of the system table is a whole system: every caller that
runs systems by name reaches a row added with no other edit, and what
a row holds (forced layer, wrapper) behaves the same wherever it runs."""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro.harness.build as build
from repro.algos.registry import SYSTEMS, SystemRow, build_system
from repro.core.controller import P4UpdateController
from repro.harness.experiment import run_experiment
from repro.harness.scenarios import seeded_scenario
from repro.params import SimParams
from repro.serve.service import run_service
from repro.serve.spec import load_serve_spec
from repro.sim.trace import trace_signature
from tests.reference_scenarios import _CHAOS_CLOSED, _SERVE

ROOT = pathlib.Path(__file__).resolve().parents[2]
COMPETE_SMOKE = ROOT / "examples" / "compete_smoke.json"

#: P4Update forced to SL under a name no module knows.
TOY = SystemRow(
    name="toy-sl",
    description="P4Update forced to single-layer updates, registered by a test",
    native="repro.harness.build:P4UPDATE",
    forced_layer="SINGLE",
    decentralized=True,
)


@pytest.fixture
def toy_row(monkeypatch):
    monkeypatch.setitem(SYSTEMS, TOY.name, TOY)
    return TOY.name


def _smoke_spec(strategy: str):
    doc = json.loads(COMPETE_SMOKE.read_text())
    return load_serve_spec({**doc, "strategy": strategy})


def _result_fields(result) -> dict:
    fields = dataclasses.asdict(result)
    del fields["system"], fields["prep_time_s"]
    return fields


def test_toy_row_runs_under_run_experiment(toy_row):
    scenario = seeded_scenario("b4", "multi", 0)
    toy = run_experiment(toy_row, scenario, params=SimParams(seed=0))
    stock = run_experiment("p4update-sl", scenario, params=SimParams(seed=0))
    assert toy.system == toy_row
    assert _result_fields(toy) == _result_fields(stock)


def test_toy_row_runs_under_run_service(toy_row):
    toy = run_service(_smoke_spec(toy_row))
    stock = run_service(_smoke_spec("p4update-sl"))
    assert toy.completed > 0
    assert toy.signature() == stock.signature()
    assert toy.trace_sig == stock.trace_sig


def test_toy_row_passes_the_experiment_kind_validation(toy_row):
    from repro.sweep.spec import load_sweep_spec

    spec = load_sweep_spec({
        "name": "toy", "kind": "experiment", "systems": [toy_row, "p4update"],
        "topologies": ["b4"], "scenarios": ["single"], "seeds": 1,
    })
    assert spec.body["systems"] == [toy_row, "p4update"]


def test_toy_row_passes_compete_validate(toy_row, capsys):
    from repro.harness.cli import main

    code = main([
        "compete", "validate", str(COMPETE_SMOKE), "--strategies", f"{toy_row},p4update",
    ])
    assert code == 0
    assert TOY.description in capsys.readouterr().out


def test_importing_the_table_loads_no_implementation_module():
    loaded = subprocess.run(
        [sys.executable, "-c", (
            "import sys, repro.algos.registry; "
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('repro'))))"
        )],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    ).stdout.split()
    assert "repro.algos.registry" in loaded
    heavy = ("repro.core", "repro.harness", "repro.serve", "repro.baselines")
    assert [m for m in loaded if m.startswith(heavy)] == []


@pytest.mark.parametrize("strategy", ["p4update-sl", "p4update-dl"])
def test_forced_layer_leaves_reroutes_to_the_selection_rule(strategy, monkeypatch):
    """The row's layer reaches the updates the orchestrator prepares;
    §11 reroutes (prepared by the controller itself) keep §7.5."""
    layer = SYSTEMS[strategy].update_type()
    asked = []
    original = P4UpdateController.prepare_update

    def spy(self, flow_id, new_path, update_type=None, **kwargs):
        asked.append(update_type)
        return original(self, flow_id, new_path, update_type, **kwargs)

    rerouted = []
    original_reroute = P4UpdateController._reroute_flow

    def reroute(self, record):
        before = len(asked)
        original_reroute(self, record)
        rerouted.extend(asked[before:])

    monkeypatch.setattr(P4UpdateController, "prepare_update", spy)
    monkeypatch.setattr(P4UpdateController, "_reroute_flow", reroute)
    run_service(load_serve_spec({**_SERVE, **_CHAOS_CLOSED, "strategy": strategy}))
    assert rerouted, "the link flaps rerouted nothing"
    assert set(rerouted) == {None}
    assert asked.count(layer) == len(asked) - len(rerouted) > 0


def test_dispatch_ordering_row_is_refused_before_building(monkeypatch):
    built = []
    monkeypatch.setattr(
        build, "build_p4update_network", lambda *a, **k: built.append(a)
    )
    with pytest.raises(ValueError, match="dispatch"):
        run_experiment("synthesis", seeded_scenario("b4", "single", 0))
    assert built == []


def test_dispatch_ordering_row_is_refused_at_experiment_spec_load():
    from repro.sweep.spec import SweepSpecError, load_sweep_spec

    with pytest.raises(SweepSpecError, match="dispatch"):
        load_sweep_spec({
            "name": "s", "kind": "experiment", "systems": ["synthesis"],
            "topologies": ["b4"], "scenarios": ["single"], "seeds": 1,
        })


def test_dual_row_allows_consecutive_dual_on_every_switch():
    from repro.topo.synthetic import ring_topology

    dual = build_system("p4update-dl", ring_topology(5))
    stock = build_system("p4update", ring_topology(5))
    assert all(s.program.allow_consecutive_dual for s in dual.switches.values())
    assert not any(s.program.allow_consecutive_dual for s in stock.switches.values())


AUGMENTED_CELLS = [
    (topology, scenario, seed)
    for topology in ("b4", "internet2", "fattree4")
    for scenario in ("single", "multi")
    for seed in (0, 1)
]


def _captured_run(system, scenario, params, monkeypatch):
    deployments = []
    original = build.build_p4update_network

    def capturing(*args, **kwargs):
        deployments.append(original(*args, **kwargs))
        return deployments[-1]

    monkeypatch.setattr(build, "build_p4update_network", capturing)
    result = run_experiment(system, scenario, params=params)
    monkeypatch.setattr(build, "build_p4update_network", original)
    (deployment,) = deployments
    return result, trace_signature(deployment.network.trace)


@pytest.mark.parametrize(
    "topology,kind,seed", AUGMENTED_CELLS, ids=lambda v: str(v)
)
def test_augmented_equals_p4update_under_run_experiment(topology, kind, seed, monkeypatch):
    scenario = seeded_scenario(topology, kind, seed)
    params = SimParams(seed=seed)
    if kind == "single":
        params = params.with_dionysus_install_delay()
    augmented, augmented_sig = _captured_run("augmented", scenario, params, monkeypatch)
    stock, stock_sig = _captured_run("p4update", scenario, params, monkeypatch)
    assert _result_fields(augmented) == _result_fields(stock)
    assert augmented_sig == stock_sig
