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

from repro.core.messages import FRM, UFM, UIM, UNMFields, UpdateType
from repro.core.labeling import distance_labels
from repro.core.segmentation import Segment, compute_segments
from repro.core.verification import (
    Decision,
    NodeFlowState,
    Verdict,
    verify_dl,
    verify_sl,
)
from repro.core.controller import P4UpdateController
from repro.core.switch import P4UpdateSwitch
from repro.core.strategy import choose_update_type
from repro.core.desttree import DestinationTreeManager

__all__ = [
    "FRM",
    "UFM",
    "UIM",
    "UNMFields",
    "UpdateType",
    "distance_labels",
    "Segment",
    "compute_segments",
    "Decision",
    "NodeFlowState",
    "Verdict",
    "verify_sl",
    "verify_dl",
    "P4UpdateController",
    "P4UpdateSwitch",
    "choose_update_type",
    "DestinationTreeManager",
]
