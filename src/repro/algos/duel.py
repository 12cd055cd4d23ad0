"""Head-to-head strategy duels on live capacity-swap deadlocks.

:func:`run_duel` drives every strategy through the same seeded
:class:`~repro.analysis.advgen.SlackPair` suite — two flows swapping
corridors whose capacities fit one flow each, plus a helper corridor
with ``slack`` spare capacity.  Each strategy gets a fresh deployment,
both updates are prepared and pushed through the strategy contract,
and the run is scored on per-flow completion plus live-checker
violations.  With ``slack >= 0`` the ``augmented`` strategy should be
the only one that completes the pair (the acceptance criterion the
compete CLI's ``duel`` subcommand asserts).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.algos.registry import SYSTEMS, build_system
from repro.analysis.advgen import SlackPair, generate_slack_pairs
from repro.harness.experiment import experiment_row
from repro.params import SimParams

#: Long enough for two chained updates over 1 ms links plus control
#: latency; short enough that a deadlocked ez-Segway deferral loop
#: (1 ms resubmit) stays cheap.
DUEL_HORIZON_MS = 5000.0


def _run_one(
    pair: SlackPair, strategy: str, seed: int, horizon_ms: float
) -> dict[str, Any]:
    """One strategy on one pair: install, push both updates, run."""
    topo = pair.topology()
    params = SimParams(seed=seed)
    deployment = build_system(strategy, topo, params=params)
    deployment.set_congestion_aware(True)
    flows = pair.flow_objects()
    for flow in flows:
        deployment.install_flow(flow)

    events: list[tuple[str, int, Optional[int]]] = []
    deployment.controller.update_listeners.append(
        lambda event, flow_id, version: events.append((event, flow_id, version))
    )
    versions: dict[int, int] = {}
    for flow in flows:
        prepared = deployment.controller.prepare_update(
            flow.flow_id, list(flow.new_path or []), deployment.update_type
        )
        versions[flow.flow_id] = prepared.version
        deployment.controller.push_update(prepared)
    deployment.run(until=horizon_ms)

    outcomes: dict[int, str] = {}
    for flow in flows:
        outcome = "stuck"
        for event, flow_id, version in events:
            if flow_id != flow.flow_id:
                continue
            if event == "parked":
                outcome = "parked"
                break
            if version == versions[flow.flow_id] and event in (
                "completed", "aborted"
            ):
                outcome = event
                break
        outcomes[flow.flow_id] = outcome
    return {
        "outcomes": {str(k): v for k, v in sorted(outcomes.items())},
        "pair_completed": all(v == "completed" for v in outcomes.values()),
        "violations": len(deployment.checker.violations),
    }


def duel_line_up(strategies: Optional[Sequence[str]] = None) -> list[str]:
    """The strategies a duel runs: ``strategies`` as given, or every
    registered row the duel can drive.  The duel prepares and pushes
    updates itself, so a row that orders updates at dispatch (only the
    service orchestrator does) is left out of the default and refused
    by name, like :func:`~repro.harness.experiment.run_experiment`
    refuses it."""
    if strategies:
        return [experiment_row(name).name for name in strategies]
    return [name for name, row in sorted(SYSTEMS.items()) if not row.orders_at_dispatch()]


def run_duel(
    seed: int = 0,
    count: int = 3,
    slack: float = 0.25,
    strategies: Optional[Sequence[str]] = None,
    horizon_ms: float = DUEL_HORIZON_MS,
) -> dict[str, Any]:
    """Run the slack-deadlock suite across :func:`duel_line_up`.

    Returns a JSON-safe document with one row per pair and a summary
    counting the pairs only augmentation resolved.
    """
    chosen = duel_line_up(strategies)
    pairs = generate_slack_pairs(seed, count=count, slack=slack)
    rows = []
    augmented_only = 0
    for pair in pairs:
        results = {
            name: _run_one(pair, name, seed, horizon_ms) for name in chosen
        }
        augmented = results.get("augmented")
        others = [r for name, r in results.items() if name != "augmented"]
        only_augmented = bool(
            augmented is not None
            and augmented["pair_completed"]
            and augmented["violations"] == 0
            and others
            and all(not r["pair_completed"] for r in others)
        )
        augmented_only += int(only_augmented)
        rows.append(
            {
                "case": pair.name,
                "slack": pair.slack,
                "size": pair.size,
                "augmentable": pair.augmentable,
                "augmented_only": only_augmented,
                "results": results,
            }
        )
    return {
        "seed": seed,
        "slack": slack,
        "strategies": chosen,
        "cases": rows,
        "summary": {
            "pairs": len(rows),
            "augmented_only_completions": augmented_only,
            "violations": sum(
                r["violations"] for row in rows for r in row["results"].values()
            ),
        },
    }
