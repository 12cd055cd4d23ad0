"""End-to-end: instrumented experiments, span taxonomy, the obs CLI."""

import numpy as np

from repro.harness.experiment import run_experiment
from repro.harness.scenarios import single_flow_scenario
from repro.obs import Sampler, make_obs
from repro.obs.sampler import OUTSIDE
from repro.params import SimParams
from repro.topo import fig1_topology


def instrumented_run(system="p4update-dl"):
    obs = make_obs()
    scenario = single_flow_scenario(fig1_topology(), np.random.default_rng(0))
    result = run_experiment(
        system, scenario, params=SimParams(seed=0), obs=obs
    )
    return obs, result


def test_experiment_emits_span_taxonomy():
    obs, result = instrumented_run()
    assert result.completed
    (root,) = obs.spans.roots
    assert root.name == "experiment"
    assert root.attrs["system"] == "p4update-dl"
    names = [child.name for child in root.children]
    assert names == ["preparation", "uim_fanout", "run_to_quiescence", "analysis"]
    run_span = root.children[2]
    # The sim clock moved only while the engine ran.
    assert run_span.sim_ms > 0
    assert root.children[0].sim_ms == 0.0


def test_ezsegway_spans_nest_dependency_computation():
    obs = make_obs()
    scenario = single_flow_scenario(fig1_topology(), np.random.default_rng(0))
    run_experiment(
        "ezsegway", scenario, params=SimParams(seed=0),
        congestion_aware=True, obs=obs,
    )
    (root,) = obs.spans.roots
    prep = root.children[0]
    assert prep.name == "preparation"
    assert [c.name for c in prep.children] == ["dependency_computation"]


def test_profiled_experiment_reports_hot_callbacks():
    """Experiments sampled until the sampler fires: each sample names a
    repro function (or none), and the obs snapshot carries no profile."""
    with Sampler() as sampler:
        while not sampler.counts:
            obs, _result = instrumented_run()
    report = sampler.report()
    assert report
    assert all(row["target"] == OUTSIDE or row["target"].startswith("repro.") for row in report)
    assert "profile" not in obs.snapshot()


def test_cli_obs_export_filter_summary(tmp_path, capsys):
    from repro.harness.cli import main

    out = tmp_path / "TRACE.jsonl"
    assert main(["obs", "export", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "wrote" in printed and "metrics:" in printed and "spans:" in printed
    assert out.exists()

    assert main(["obs", "summary", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "events:" in printed and "by kind:" in printed

    filtered = tmp_path / "filtered.jsonl"
    assert main([
        "obs", "filter", str(out), "--kind", "rule_change",
        "--out", str(filtered),
    ]) == 0
    from repro.obs import iter_trace_jsonl

    events = list(iter_trace_jsonl(str(filtered)))
    assert events and all(e.kind == "rule_change" for e in events)


def test_cli_obs_filter_leaves_no_out_file_for_a_malformed_trace(tmp_path, capsys):
    from repro.harness.cli import main

    trace = tmp_path / "TRACE.jsonl"
    assert main(["obs", "export", "--out", str(trace)]) == 0
    bad = tmp_path / "bad.jsonl"
    bad.write_text(trace.read_text().splitlines()[0] + "\n{bad\n")
    capsys.readouterr()
    assert main(["obs", "filter", str(bad), "--out", str(tmp_path / "part.jsonl")]) == 1
    err = capsys.readouterr().err
    assert f"cannot read trace {str(bad)!r}" in err and "bad trace line 2" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["TRACE.jsonl", "bad.jsonl"]


def test_cli_obs_export_round_trips(tmp_path):
    from repro.harness.cli import main
    from repro.obs import export_trace_jsonl, import_trace_jsonl

    out = tmp_path / "TRACE.jsonl"
    assert main(["obs", "export", "--out", str(out)]) == 0
    rebuilt = import_trace_jsonl(str(out))
    second = tmp_path / "TRACE2.jsonl"
    export_trace_jsonl(rebuilt, str(second))
    assert out.read_text() == second.read_text()


def test_cli_obs_export_profile(tmp_path, capsys):
    from repro.harness.cli import main

    out = tmp_path / "TRACE.jsonl"
    assert main(["obs", "export", "--out", str(out), "--profile"]) == 0
    printed = capsys.readouterr().out
    assert "samples: " in printed and "layer" in printed and "target" in printed
