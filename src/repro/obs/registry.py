"""Labeled metrics: counters, gauges and streaming histograms.

A :class:`MetricsRegistry` hands out instruments keyed by metric name
plus a frozen label set (``registry.counter("messages_sent",
node="v3", type="UIM")``).  Instruments are cheap mutable cells; the
registry's :meth:`~MetricsRegistry.snapshot` renders everything into a
plain JSON-safe dict for manifests and the CLI.

A metric site takes one of three shapes (``repro.obs.context``): a
pure count of trace events is *derived* (``repro.obs.derived``
subscribes to the trace and the event site has no hook); a site on a
failure, alarm or opt-in path calls the self-guarding ``obs.count`` /
``observe`` / ``gauge_set`` helpers; and a site that fires on
fault-free runs is a *guarded family*.

A guarded-family site resolves its instrument through a *family*:
``registry.family("counter", "messages_sent", "node", "plane",
"type")`` is one ``dict`` per (kind, name, label names), memoised by
the registry and keyed by label-value tuple, so an event pays one
tuple build and one dict hit (``family[sender, "data", "unm"].inc()``).
Families are lazy: a missing key creates the instrument through the
same canonical store ``counter`` / ``gauge`` / ``histogram`` use, so
creation order, snapshots and the kind-conflict ``TypeError`` do not
depend on which spelling asked first.  An object that receives its
``obs`` in ``__init__`` binds its families there, to attributes named
``self._m_<what>``; the ``unguarded-obs`` lint rule treats a subscript
of such an attribute (or of an ``obs.metrics.family(...)`` call) as a
metric access that needs an ``obs.enabled`` guard.  The bind itself
needs none: on a disabled context it returns a shared null family.

Histograms are *streaming*: they keep geometric buckets (≈9 % wide)
plus exact count/sum/min/max, so p50/p90/p99 estimates never require
storing the samples.  The estimation error is bounded by the bucket
width.  A run's reported SLOs are exact instead: :func:`slo_summary`
takes nearest-rank percentiles over the whole series (serve, ops and
causal attribution all report through it).

The :class:`NullRegistry` is the default everywhere: every instrument
request returns a shared no-op singleton, so instrumented code paths
cost one attribute check (``obs.enabled``) or an empty method call
when observability is off, and a derived metric costs nothing.
"""

from __future__ import annotations

import math
from typing import Any, Iterator, Optional

# Geometric bucket growth: 2**(1/8) per bucket ≈ 9.05 % relative
# width, i.e. quantile estimates are within ~4.5 % of the true value.
_BUCKET_BASE = 2.0 ** 0.125
_LOG_BASE = math.log(_BUCKET_BASE)


def _label_key(labels: dict) -> frozenset:
    return frozenset(labels.items())


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def snapshot(self) -> dict:
        return {"value": self.value}


class Gauge:
    """Point-in-time value (queue depth, reserved capacity, ...)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def snapshot(self) -> dict:
        return {"value": self.value}


class Histogram:
    """Streaming distribution with geometric buckets.

    ``observe`` is O(1); ``quantile`` walks the (sparse) bucket table.
    Non-positive samples land in a dedicated zero bucket (the paper's
    measured quantities — delays, depths, sizes — are non-negative).
    """

    __slots__ = ("count", "total", "minimum", "maximum", "_zero", "_buckets")
    kind = "histogram"

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._zero = 0                       # samples <= 0
        self._buckets: dict[int, int] = {}   # bucket index -> count

    def observe(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"non-finite histogram sample: {value}")
        self.count += 1
        self.total += value
        # What min() / max() keep on a tie, -0.0 against 0.0 included.
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if value <= 0.0:
            self._zero += 1
            return
        idx = math.floor(math.log(value) / _LOG_BASE)
        self._buckets[idx] = self._buckets.get(idx, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (q in [0, 1])."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return math.nan
        rank = q * (self.count - 1)
        cumulative = self._zero
        if rank < cumulative:
            return max(self.minimum, 0.0) if self._zero else 0.0
        for idx in sorted(self._buckets):
            cumulative += self._buckets[idx]
            if rank < cumulative:
                # Geometric bucket midpoint, clamped to observed range.
                mid = _BUCKET_BASE ** (idx + 0.5)
                return min(max(mid, self.minimum), self.maximum)
        return self.maximum

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p90(self) -> float:
        return self.quantile(0.90)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def snapshot(self) -> dict:
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
        }


def nearest_rank(values: list[float], pct: int) -> Optional[float]:
    """Nearest-rank percentile — pure python, no float surprises."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil without floats
    return ordered[rank - 1]


#: SLO percentiles reported per latency series.
_PERCENTILES = (50, 90, 99)


def slo_summary(values: list[float]) -> dict[str, Any]:
    """Count, nearest-rank SLO percentiles and max of one latency series."""
    doc: dict[str, Any] = {"count": len(values)}
    for pct in _PERCENTILES:
        doc[f"p{pct}"] = nearest_rank(values, pct)
    doc["max"] = max(values) if values else None
    return doc


class _Family(dict):
    """One metric's instruments keyed by label-value tuple (internal;
    see :meth:`MetricsRegistry.family`)."""

    __slots__ = ("_registry", "_factory", "_name", "_label_names")

    def __init__(self, registry: MetricsRegistry, factory: type, name: str, label_names: tuple):
        super().__init__()
        self._registry, self._factory, self._name = registry, factory, name
        self._label_names = label_names

    def __missing__(self, values: tuple):
        labels = dict(zip(self._label_names, values, strict=True))
        instrument = self[values] = self._registry._get(self._factory, self._name, labels)
        return instrument


class MetricsRegistry:
    """Get-or-create store of labeled instruments."""

    enabled = True
    _KINDS = {cls.kind: cls for cls in (Counter, Gauge, Histogram)}

    def __init__(self) -> None:
        # (name, label_key) -> instrument
        self._instruments: dict[tuple[str, frozenset], object] = {}
        # name -> labels dict per label_key, for snapshots.
        self._labels: dict[tuple[str, frozenset], dict] = {}
        # (kind, name, label names) -> family
        self._families: dict[tuple[str, str, tuple[str, ...]], _Family] = {}

    def family(self, kind: str, name: str, *label_names: str) -> dict:
        """The ``dict`` of ``kind`` instruments named ``name``, keyed
        by a tuple of values for ``label_names`` (in that order).

        Memoised per ``(kind, name, label_names)``; a missing key
        creates the instrument on first use, exactly as
        ``counter(name, **labels)`` would."""
        key = (kind, name, label_names)
        family = self._families.get(key)
        if family is None:
            family = self._families[key] = _Family(self, self._KINDS[kind], name, label_names)
        return family

    def _get(self, factory, name: str, labels: dict):
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = factory()
            self._instruments[key] = instrument
            self._labels[key] = dict(labels)
        elif not isinstance(instrument, factory):
            raise TypeError(
                f"metric {name!r} already registered as {instrument.kind}"
            )
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self.family("counter", name, *labels)[tuple(labels.values())]

    def gauge(self, name: str, **labels) -> Gauge:
        return self.family("gauge", name, *labels)[tuple(labels.values())]

    def histogram(self, name: str, **labels) -> Histogram:
        return self.family("histogram", name, *labels)[tuple(labels.values())]

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self) -> Iterator[tuple[str, dict, object]]:
        for (name, key), instrument in self._instruments.items():
            yield name, self._labels[(name, key)], instrument

    def value(self, name: str, **labels) -> Optional[float]:
        """Counter/gauge value for exact name+labels, or None."""
        instrument = self._instruments.get((name, _label_key(labels)))
        return getattr(instrument, "value", None)

    def total(self, name: str) -> float:
        """Sum of a counter/gauge metric across all label sets."""
        return sum(
            instrument.value
            for (metric, _), instrument in self._instruments.items()
            if metric == name and hasattr(instrument, "value")
        )

    def snapshot(self) -> dict:
        """JSON-safe dump: name -> list of {labels, type, ...fields}."""
        out: dict[str, list] = {}
        for name, labels, instrument in sorted(
            self, key=lambda row: (row[0], sorted(row[1].items()))
        ):
            row = {"labels": labels, "type": instrument.kind}
            row.update(instrument.snapshot())
            out.setdefault(name, []).append(row)
        return out


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class _NullFamily(dict):
    """Read-only family: every key yields one shared null instrument
    and nothing is stored."""

    __slots__ = ("_instrument",)

    def __init__(self, instrument: object) -> None:
        super().__init__()
        self._instrument = instrument

    def __missing__(self, values: tuple):
        return self._instrument

    def __setitem__(self, values: tuple, instrument: object) -> None:
        raise TypeError("a null family stores nothing")


_NULL_COUNTERS = _NullFamily(_NullCounter())
_NULL_GAUGES = _NullFamily(_NullGauge())
_NULL_HISTOGRAMS = _NullFamily(_NullHistogram())


class NullRegistry(MetricsRegistry):
    """No-op registry: shared singletons, no state, no allocation."""

    enabled = False
    _NULL_FAMILIES = {f._instrument.kind: f for f in (_NULL_COUNTERS, _NULL_GAUGES, _NULL_HISTOGRAMS)}

    def family(self, kind: str, name: str, *label_names: str) -> dict:
        return self._NULL_FAMILIES[kind]
