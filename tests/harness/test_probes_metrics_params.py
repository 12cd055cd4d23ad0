"""Unit tests for probes, metrics, parameters and CLI plumbing."""

import numpy as np
import pytest

from repro.harness.metrics import summarize
from repro.harness.probes import (
    ProbeObservation,
    duplicate_receives,
)
from repro.params import DelayDistribution, SimParams


# -- metrics -----------------------------------------------------------------

def test_summarize_fields():
    summary = summarize([1.0, 2.0, 3.0, 4.0])
    assert summary.mean == pytest.approx(2.5)
    assert summary.minimum == 1.0 and summary.maximum == 4.0
    assert summary.n == 4
    assert "n=  4" in summary.row("x")


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize([])


def test_summarize_extended_percentiles_and_std():
    samples = [float(i) for i in range(1, 101)]
    summary = summarize(samples)
    assert summary.p50 == summary.median
    assert summary.p50 == pytest.approx(np.percentile(samples, 50))
    assert summary.p99 == pytest.approx(np.percentile(samples, 99))
    assert summary.std == pytest.approx(np.std(samples))
    assert "p99=" in summary.row("x") and "std=" in summary.row("x")


def test_summarize_rejects_non_finite():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="non-finite"):
            summarize([1.0, bad, 3.0])


# -- probes helpers ---------------------------------------------------------------

def test_duplicate_receives_counts_repeats():
    obs = [
        ProbeObservation(1.0, 0),
        ProbeObservation(2.0, 1),
        ProbeObservation(3.0, 1),
        ProbeObservation(4.0, 1),
        ProbeObservation(5.0, 2),
    ]
    assert duplicate_receives(obs) == {1: 3}


def test_duplicate_receives_empty():
    assert duplicate_receives([]) == {}


# -- delay distributions ------------------------------------------------------------

def test_constant_distribution():
    rng = np.random.default_rng(0)
    dist = DelayDistribution.constant(5.0)
    assert dist.sample(rng) == 5.0


def test_exponential_distribution_mean():
    rng = np.random.default_rng(0)
    dist = DelayDistribution.exponential(10.0)
    samples = [dist.sample(rng) for _ in range(5000)]
    assert np.mean(samples) == pytest.approx(10.0, rel=0.1)


def test_normal_distribution_floor():
    rng = np.random.default_rng(0)
    dist = DelayDistribution.normal(1.0, 10.0, floor=0.5)
    samples = [dist.sample(rng) for _ in range(200)]
    assert min(samples) >= 0.5


def test_uniform_distribution_bounds():
    rng = np.random.default_rng(0)
    dist = DelayDistribution.uniform(2.0, 6.0)
    samples = [dist.sample(rng) for _ in range(200)]
    assert all(2.0 <= s <= 6.0 for s in samples)


def test_unknown_distribution_kind_rejected():
    dist = DelayDistribution(kind="pareto", value=1.0)
    with pytest.raises(ValueError):
        dist.sample(np.random.default_rng(0))


def test_simparams_with_seed_and_dionysus():
    params = SimParams(seed=1)
    reseeded = params.with_seed(9)
    assert reseeded.seed == 9 and params.seed == 1
    slow = params.with_dionysus_install_delay()
    assert slow.rule_install_delay.kind == "exponential"
    assert slow.rule_install_delay.value == 100.0
    assert slow.baseline_install_delay.value == 100.0


def test_simparams_rng_deterministic():
    a = SimParams(seed=5).rng().integers(0, 1000, size=4)
    b = SimParams(seed=5).rng().integers(0, 1000, size=4)
    assert list(a) == list(b)


# -- CLI ------------------------------------------------------------------------------

def test_cli_demo_runs(capsys):
    from repro.harness.cli import main

    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "update complete: True" in out


def test_cli_fig2_runs(capsys):
    from repro.harness.cli import main

    assert main(["fig2"]) == 0
    out = capsys.readouterr().out
    assert "p4update" in out and "ezsegway" in out


def test_cli_requires_command():
    from repro.harness.cli import main

    with pytest.raises(SystemExit):
        main([])
