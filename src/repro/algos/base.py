"""Helpers shared by the wrappers of :mod:`repro.algos` (the update
contract itself is :class:`repro.core.contract.UpdateController`)."""

from __future__ import annotations

from typing import Any, Sequence


class _Delegating:
    """Mixin: forward unknown attribute reads to ``self._inner``.

    Keeps wrapper deployments/controllers compatible with every
    consumer that only *reads* the wrapped object (chaos event
    application, telemetry, the live checker's trace taps).
    """

    _inner: Any

    def __getattr__(self, item: str) -> Any:
        return getattr(self._inner, item)


def path_edges(path: Sequence[str]) -> tuple[tuple[str, str], ...]:
    """Directed edges of a node path (shared by augmentation/synthesis)."""
    return tuple(zip(path, path[1:]))
