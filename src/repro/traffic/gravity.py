"""Gravity traffic model (Roughan, CCR 2005).

The paper generates multi-flow workload sizes "according to the
Gravity Model, as proposed by Roughan [66]": traffic between nodes i
and j is proportional to the product of per-node weights drawn from an
exponential distribution, T_ij ~ w_i * w_j / sum(w).  We expose both
the full matrix and per-flow sampling.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def gravity_matrix(
    nodes: Sequence[str],
    rng: np.random.Generator,
    total_traffic: float = 1.0,
    weight_mean: float = 1.0,
) -> dict[tuple[str, str], float]:
    """Full origin-destination traffic matrix.

    Node weights are exponential(weight_mean); the matrix entry for
    (i, j), i != j, is ``total_traffic * w_i * w_j / (sum_w)^2``
    (normalised so off-diagonal entries sum to at most total_traffic).
    """
    if len(nodes) < 2:
        raise ValueError("gravity model needs at least two nodes")
    weights = rng.exponential(weight_mean, size=len(nodes))
    total_weight = float(weights.sum())
    if total_weight <= 0:
        raise ValueError("degenerate weights")
    matrix: dict[tuple[str, str], float] = {}
    for i, src in enumerate(nodes):
        for j, dst in enumerate(nodes):
            if i == j:
                continue
            matrix[(src, dst)] = (
                total_traffic * float(weights[i]) * float(weights[j]) / total_weight**2
            )
    return matrix


def gravity_flow_sizes(
    pairs: Sequence[tuple[str, str]],
    rng: np.random.Generator,
    mean_size: float = 1.0,
) -> list[float]:
    """Sizes for a specific list of (src, dst) flows.

    Weights are sampled per node appearing in ``pairs``; the flow size
    is w_src * w_dst scaled so the mean is ``mean_size``.
    """
    if not pairs:
        return []
    nodes = sorted({n for pair in pairs for n in pair})
    weights = {node: rng.exponential(1.0) for node in nodes}
    raw = np.array([weights[s] * weights[d] for s, d in pairs], dtype=float)
    mean_raw = float(raw.mean())
    if mean_raw <= 0:
        return [mean_size] * len(pairs)
    return list(raw * (mean_size / mean_raw))
