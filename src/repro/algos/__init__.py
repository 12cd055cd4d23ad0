"""Pluggable update-system subsystem (see docs/ALGORITHMS.md).

* :mod:`repro.algos.registry` — the one table of update systems and
  the one build function (the contract their controllers speak is
  :class:`repro.core.contract.UpdateController`).
* :mod:`repro.algos.augmented` / :mod:`repro.algos.synthesis` — the two
  wrappers rows may name.
* :mod:`repro.algos.duel` — head-to-head duels on advgen deadlock pairs.
"""
