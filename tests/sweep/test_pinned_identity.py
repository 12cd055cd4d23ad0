"""Spec hashes and shard lists pinned at the commit before the kind
registry landed: one spec per kind, built the way its CLI builds it.

``spec_hash`` keys the on-disk shard cache and ``(shard_id, seed, key)``
decides which workload every shard runs, so any drift here silently
changes every committed signature downstream.  ``pinned_identity.json``
was recorded from the pre-registry ``SweepSpec``; regenerate it only
for a deliberate spec-format change.
"""

import json
import pathlib

import pytest

from repro.chaos.campaign import load_campaign_file
from repro.chaos.sweep_kind import campaign_sweep
from repro.fuzz.campaign import fuzz_sweep_spec, load_fuzz_spec_file
from repro.harness.fig_experiments import fig7_sweep_spec
from repro.harness.prep import fig8_sweep_spec
from repro.ops.spec import load_session_spec_file
from repro.ops.sweep_kind import session_sweep
from repro.serve.spec import load_serve_spec_file
from repro.serve.sweep_kind import serve_sweep
from repro.sweep.spec import load_sweep_spec_file

ROOT = pathlib.Path(__file__).resolve().parents[2]
PINNED = json.loads((ROOT / "tests/sweep/pinned_identity.json").read_text())


def _example(name):
    return str(ROOT / "examples" / name)


def _serve(name):
    return load_serve_spec_file(_example(name))


BUILDERS = {
    "serve": lambda: serve_sweep(_serve("serve_smoke.json"), 2),
    "interference": lambda: serve_sweep(
        _serve("serve_smoke.json"), 3, kind="interference"
    ),
    "compete": lambda: serve_sweep(
        _serve("compete_smoke.json"), 2, kind="compete",
        strategies=["p4update", "ezsegway", "central"],
    ),
    "ops": lambda: session_sweep(
        load_session_spec_file(_example("ops_fleet.json")), 2
    ),
    "chaos": lambda: campaign_sweep(
        load_campaign_file(_example("chaos_smoke.json")), 2
    ),
    "fuzz": lambda: fuzz_sweep_spec(
        load_fuzz_spec_file(_example("fuzz_smoke.json"))
    ),
    "experiment": lambda: load_sweep_spec_file(_example("sweep_smoke.json")),
    "fig7": lambda: fig7_sweep_spec("a", runs=3, seed=0),
    "prep": lambda: fig8_sweep_spec(updates=1000, count_updates=50, seed=0),
}


def test_every_pinned_spec_has_a_builder():
    assert set(BUILDERS) == set(PINNED)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_spec_hash_and_shard_list_are_unchanged(name):
    spec = BUILDERS[name]()
    assert spec.spec_hash() == PINNED[name]["spec_hash"]
    shards = [[s.shard_id, s.seed, s.key] for s in spec.expand()]
    assert shards == PINNED[name]["shards"]
