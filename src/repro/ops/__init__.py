"""The live operations plane.

A long-lived serve session (:mod:`repro.serve`) overlaid with a
declarative operations timeline — tenant migrations, rolling switch
drains, capacity rebalancing — plus rolling on-disk replay points, so
a multi-hour simulated session can be stopped and resumed
byte-identically by re-running its spec to the last checkpoint
(``repro ops run|checkpoint|resume``).
"""

from repro.ops.spec import (
    OP_KINDS,
    SessionSpec,
    SessionSpecError,
    load_session_spec,
    load_session_spec_file,
)
from repro.ops.session import OpsResult, OpsSession, build_session, run_session

__all__ = [
    "OP_KINDS",
    "OpsResult",
    "OpsSession",
    "SessionSpec",
    "SessionSpecError",
    "build_session",
    "load_session_spec",
    "load_session_spec_file",
    "run_session",
]
