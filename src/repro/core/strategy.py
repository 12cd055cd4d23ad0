"""Single- vs dual-layer selection (paper §7.5).

The deployment rule the paper proposes and evaluates:

1. updates that install new forwarding rules on relatively few nodes
   and contain only *forward* segments are handled by SL-P4Update;
2. all other updates are handled by DL-P4Update.

§9.1 makes "relatively few" concrete: "choosing the single-layer
approach when we have only forward segments with at most five nodes to
be updated".
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.messages import UpdateType
from repro.core.segmentation import nodes_to_update, old_distances

SL_NODE_THRESHOLD = 5


def choose_update_type(
    old_path: Sequence[str],
    new_path: Sequence[str],
    threshold: int = SL_NODE_THRESHOLD,
    old_dist: Optional[dict[str, int]] = None,
) -> UpdateType:
    """Pick SL or DL for one flow update per the §7.5/§9.1 rule.

    ``old_dist`` is :func:`old_distances` of the pair, for a caller
    that already holds it.  Every segment is forward iff D_o falls
    from each gateway to the next along P_n, i.e. the gateways' D_o
    read in descending order.
    """
    if old_dist is None:
        old_dist = old_distances(old_path, new_path)
    gateway_dist = [old_dist[node] for node in new_path if node in old_dist]
    if (
        gateway_dist == sorted(gateway_dist, reverse=True)
        and len(nodes_to_update(old_path, new_path)) <= threshold
    ):
        return UpdateType.SINGLE
    return UpdateType.DUAL
