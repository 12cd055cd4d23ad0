"""Packets and headers.

A :class:`Header` is a named set of fixed-width unsigned fields with a
validity bit, mirroring P4-16 header semantics: reading an invalid
header is an error, ``setValid``/``setInvalid`` toggle the validity
bit, and field writes are truncated to the declared bit width.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Iterable


@dataclass(frozen=True)
class HeaderField:
    """One field of a header type: a name and a bit width."""

    name: str
    bits: int

    def mask(self) -> int:
        return (1 << self.bits) - 1


class HeaderType:
    """Schema for a header: ordered fields with widths."""

    def __init__(self, name: str, fields: Iterable[HeaderField]) -> None:
        self.name = name
        self.fields = {f.name: f for f in fields}
        if not self.fields:
            raise ValueError(f"header type {name!r} has no fields")
        # Worked out once per type: every field write masks to the
        # declared width and every new header starts from the zero row.
        self.masks = {f.name: f.mask() for f in self.fields.values()}
        self.zero_row = dict.fromkeys(self.fields, 0)

    def instantiate(self) -> "Header":
        return Header(self)


class Header:
    """A header instance: field values plus validity."""

    def __init__(self, header_type: HeaderType) -> None:
        self._type = header_type
        self._values = header_type.zero_row.copy()
        #: The validity bit.  ``is_valid()`` is the P4 spelling; a
        #: per-message classifier reads the attribute to save a call.
        self.valid = False

    @property
    def header_type(self) -> HeaderType:
        return self._type

    def is_valid(self) -> bool:
        return self.valid

    def set_valid(self) -> None:
        self.valid = True

    def set_invalid(self) -> None:
        self.valid = False

    def __getitem__(self, field: str) -> int:
        if not self.valid:
            raise InvalidHeaderAccess(
                f"read of field {field!r} on invalid header {self._type.name!r}"
            )
        return self._values[field]

    def __setitem__(self, field: str, value: int) -> None:
        mask = self._type.masks.get(field)
        if mask is None:
            raise KeyError(f"no field {field!r} in header {self._type.name!r}")
        self._values[field] = int(value) & mask
        self.valid = True

    def get(self, field: str, default: int = 0) -> int:
        """Tolerant read used by tooling/traces (not pipeline code)."""
        if not self.valid:
            return default
        return self._values.get(field, default)

    def copy_from(self, other: "Header") -> None:
        if other._type is not self._type:
            raise TypeError("header type mismatch")
        self._values = dict(other._values)
        self.valid = other.valid


class InvalidHeaderAccess(RuntimeError):
    """Raised when pipeline code reads a field of an invalid header."""


class Packet:
    """A simulated packet: a stack of headers.

    ``meta`` carries non-P4 bookkeeping for the simulator and benches
    (sequence id, hop log, creation time); the per-pass pipeline state
    lives in the :class:`~repro.p4.pipeline.PipelineContext`.

    ``packet_id`` is a debug number that shows up in ``describe()``
    strings, hence in traces.  It is issued by the network the packet
    runs in (:meth:`repro.sim.network.Network.take_packet_id`), so a
    run's numbering depends on that run alone; 0 means "not numbered".
    """

    def __init__(self, ttl: int = 64, packet_id: int = 0) -> None:
        self.packet_id = packet_id
        self.headers: dict[str, Header] = {}
        self.ttl = ttl
        self.meta: dict[str, Any] = {}

    def add_header(self, name: str, header: Header) -> Header:
        self.headers[name] = header
        return header

    def header(self, name: str) -> Header:
        try:
            return self.headers[name]
        except KeyError:
            raise KeyError(f"packet has no header {name!r}") from None

    def has_valid(self, name: str) -> bool:
        header = self.headers.get(name)
        return header is not None and header.is_valid()

    def clone(self, packet_id: int = 0) -> "Packet":
        """Deep copy under a fresh packet id (the P4 clone primitive)."""
        twin = Packet(self.ttl, packet_id)
        for name, header in self.headers.items():
            new_header = header.header_type.instantiate()
            new_header.copy_from(header)
            twin.headers[name] = new_header
        twin.meta = copy.deepcopy(self.meta)
        return twin

    def describe(self) -> str:
        valid = [name for name, h in self.headers.items() if h.is_valid()]
        return f"Packet#{self.packet_id}[{','.join(valid) or 'raw'}]"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.describe()} ttl={self.ttl}>"
