"""Every claim of the reproduction at its expected verdict.

Each figure runs once, at the paper's budget (30 single-flow runs, 10
multi-flow runs, 50 counted preparations), and every ``CLAIMS`` row
reading it must land on its ``expect``ed verdict::

    PYTHONPATH=src python -m pytest benchmarks/test_claims.py -q

A verdict that flips fails; a number that moves inside its band does
not.  The band tests and the EXPERIMENTS.md cross-check run in well
under a second (``-k "not holds"``).
"""

import functools
import math
import re

import pytest
from claims import CLAIMS, FIGURES, ROOT, Claim, le


@functools.cache
def figure(name: str):
    return FIGURES[name]()


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: c.id)
def test_claim_holds_its_expected_verdict(claim):
    value = float(claim.metric(figure(claim.figure)))
    print(f"{claim.id}: {value:.4g} ({claim.verdict(value)}; paper: {claim.paper})")
    assert claim.verdict(value) == claim.expect, (claim.id, value)


def test_a_value_outside_its_band_changes_the_verdict():
    row = Claim("7x.dl_vs_ez", "DL −20 % vs ez", "fig7", float, le(-10), le(0), "partial")
    assert [row.verdict(v) for v in (-15.0, -10.0, -5.0, 0.0, 3.0)] == [
        "reproduced", "reproduced", "partial", "partial", "deviation"
    ]


def _edges(band):
    return [x + d for x in band if math.isfinite(x) for d in (-1e-6, 0.0, 1e-6)]


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: c.id)
def test_every_band_separates_the_verdicts(claim):
    bands = [b for b in (claim.reproduced, claim.partial) if b is not None]
    inside = [v for v in _edges(claim.reproduced) if claim.reproduced[0] <= v <= claim.reproduced[1]]
    assert inside and {claim.verdict(v) for v in inside} == {"reproduced"}
    outside = [
        v for v in _edges(claim.reproduced) + [-1e12, 1e12]
        if not any(lo <= v <= hi for lo, hi in bands)
    ]
    assert outside and {claim.verdict(v) for v in outside} == {"deviation"}
    assert claim.expect in ("reproduced", "partial", "deviation")
    assert claim.figure in FIGURES


def test_claim_ids_are_the_ids_experiments_md_names():
    ids = [claim.id for claim in CLAIMS]
    assert len(ids) == len(set(ids))
    groups = "|".join(sorted({re.escape(i.split(".")[0]) for i in ids}))
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assert set(re.findall(rf"`((?:{groups})\.\w+)`", text)) == set(ids)
