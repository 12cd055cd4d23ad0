"""Metrics helpers for the benchmark harness."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


def _require_finite(samples: Sequence[float], what: str) -> np.ndarray:
    """Convert to a float array, rejecting NaN/inf explicitly.

    Non-finite values would silently poison every derived statistic
    (``np.mean`` propagates NaN, percentile ordering with inf is
    misleading), so they are an error at the door.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.size and not np.all(np.isfinite(arr)):
        bad = int(np.count_nonzero(~np.isfinite(arr)))
        raise ValueError(f"{what} contains {bad} non-finite value(s) (NaN or inf)")
    return arr


@dataclass(frozen=True)
class Summary:
    """Distribution summary for one series of update times."""

    mean: float
    median: float
    p10: float
    p90: float
    minimum: float
    maximum: float
    n: int
    p50: float = math.nan
    p99: float = math.nan
    std: float = math.nan

    def row(self, label: str) -> str:
        return (
            f"{label:<28s} n={self.n:3d}  mean={self.mean:9.2f}  "
            f"median={self.median:9.2f}  p10={self.p10:9.2f}  "
            f"p90={self.p90:9.2f}  p99={self.p99:9.2f}  "
            f"std={self.std:9.2f}  "
            f"min={self.minimum:9.2f}  max={self.maximum:9.2f}"
        )


def summarize(samples: Sequence[float]) -> Summary:
    if not len(samples):
        raise ValueError("no samples")
    arr = _require_finite(samples, "samples")
    median = float(np.median(arr))
    return Summary(
        mean=float(arr.mean()),
        median=median,
        p10=float(np.percentile(arr, 10)),
        p90=float(np.percentile(arr, 90)),
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        n=len(arr),
        p50=median,
        p99=float(np.percentile(arr, 99)),
        std=float(arr.std(ddof=0)),
    )
