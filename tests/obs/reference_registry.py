"""The metrics registry before families — the reference.

``ReferenceMetricsRegistry`` resolves every instrument the way
``repro.obs.registry.MetricsRegistry`` did when each event called
``counter`` / ``gauge`` / ``histogram(name, **labels)``: one kwargs
dict and one ``frozenset`` label key per lookup.  ``_get``,
``counter``, ``gauge`` and ``histogram`` are the old bodies verbatim;
``family`` is the adapter that lets today's hook sites, which subscript
a bound family, take that per-call path on every subscript.
``reference_observe`` is the old ``Histogram.observe``.

``test_obs_reference.py`` runs the reference scenarios on these and on
the shipped registry and requires byte-equal snapshots.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.obs.registry import (
    _LOG_BASE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    _label_key,
)


class _PerCallFamily:
    """``family[values]`` as ``resolve(name, **dict(zip(label_names,
    values)))`` — the kwargs call a hook site made before families."""

    def __init__(
        self, resolve: Callable[..., Any], name: str, label_names: tuple[str, ...]
    ) -> None:
        self._resolve = resolve
        self._name = name
        self._label_names = label_names

    def __getitem__(self, values: tuple) -> Any:
        return self._resolve(self._name, **dict(zip(self._label_names, values)))


class ReferenceMetricsRegistry(MetricsRegistry):
    """Same store, per-call resolution; see the module docstring."""

    def family(self, kind: str, name: str, *label_names: str) -> Any:
        return _PerCallFamily(getattr(self, kind), name, label_names)

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
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, labels)


def reference_observe(self: Histogram, value: float) -> None:
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"non-finite histogram sample: {value}")
    self.count += 1
    self.total += value
    self.minimum = min(self.minimum, value)
    self.maximum = max(self.maximum, value)
    if value <= 0.0:
        self._zero += 1
        return
    idx = math.floor(math.log(value) / _LOG_BASE)
    self._buckets[idx] = self._buckets.get(idx, 0) + 1
