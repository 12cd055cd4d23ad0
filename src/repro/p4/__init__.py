"""Behavioural model of a P4 programmable data plane.

This package replaces BMv2.  It models the pieces of P4-16 that
P4Update's data-plane program uses (paper §2.1, §8, App. B) and no
others — the program forwards from a register, so there are no
match-action tables:

* customisable **headers** with validity bits and fixed-width fields
  (:mod:`repro.p4.packet`);
* **register arrays** for stateful processing, writable from both the
  control and the data plane (:mod:`repro.p4.registers`);
* one **ingress** pass per packet, with **clone sessions** that resolve
  straight to their port, **resubmit** and a CPU punt
  (:mod:`repro.p4.pipeline`);
* a :class:`repro.p4.switch.P4Switch` simulation node that runs a
  pipeline with per-packet processing delay.
"""

from repro.p4.packet import Header, HeaderField, Packet
from repro.p4.registers import RegisterArray, RegisterFile
from repro.p4.pipeline import Pipeline, PipelineContext, PipelineProgram
from repro.p4.switch import P4Switch

__all__ = [
    "Header",
    "HeaderField",
    "Packet",
    "RegisterArray",
    "RegisterFile",
    "Pipeline",
    "PipelineContext",
    "PipelineProgram",
    "P4Switch",
]
