"""P4Update — the paper's primary contribution.

Modules:

* :mod:`repro.core.messages` — FRM / UIM / UNM / UFM message types (§6);
* :mod:`repro.core.registers` — the Update Information Base, i.e. the
  register arrays of paper Table 1;
* :mod:`repro.core.labeling` — version numbers and egress distances (§3);
* :mod:`repro.core.segmentation` — gateways, forward/backward segments (§3.2);
* :mod:`repro.core.verification` — Alg. 1 (SL) and Alg. 2 (DL) as pure
  functions (§7.1, App. A);
* :mod:`repro.core.scheduler` — the local, dynamic congestion scheduler (§7.4);
* :mod:`repro.core.dataplane` — the P4 pipeline program (§8, App. B);
* :mod:`repro.core.switch` — the switch agent tying program to simulator;
* :mod:`repro.core.contract` — the update contract every controller
  speaks (Flow DB, completion listeners, queries);
* :mod:`repro.core.controller` — the control plane (§6, §8);
* :mod:`repro.core.strategy` — SL/DL selection (§7.5);
* :mod:`repro.core.desttree` — destination-tree updates (§11).

Rule cleanup and UNM-loss recovery (§11) live in the switch agent,
the pipeline program and the controller.
"""
