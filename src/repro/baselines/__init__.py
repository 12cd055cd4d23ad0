"""Baselines the paper compares against (§9.1 "Previous Work"):

* :mod:`repro.baselines.central` — centralized dependency-graph
  updates in rounds (Mahajan & Wattenhofer / Dionysus style, [57]);
* :mod:`repro.baselines.ezsegway` — decentralized updates with
  in_loop / not_in_loop segments and GoodToMove coordination ([63]),
  re-implemented the way the P4Update authors describe their port of
  it ("the update order within each segment is encoded into the
  egress of each segment").
"""
