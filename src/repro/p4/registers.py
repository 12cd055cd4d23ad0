"""Register arrays — P4's stateful memory.

Registers persist across packets and are writable from both the data
plane (pipeline actions) and the control plane (runtime API), which is
exactly the property P4Update exploits to apply new routing state "at
the correct time" (paper §2.1).
"""

from __future__ import annotations

from typing import Iterator


class RegisterArray:
    """Fixed-size array of unsigned values of a given bit width.

    The *size* is fixed, as on the target; the *storage* is sparse:
    only cells that were written hold a slot, every other index reads
    as the fill value.  A switch provisions 20 UIB arrays of 4096 cells
    and a run touches a few dozen of them, so building a deployment
    costs what it uses, not what it declares.
    """

    def __init__(self, name: str, size: int, bits: int = 32, initial: int = 0) -> None:
        if size <= 0:
            raise ValueError(f"register array {name!r} needs positive size")
        if bits <= 0:
            raise ValueError(f"register array {name!r} needs positive width")
        self.name = name
        self.size = size
        self.bits = bits
        self._mask = (1 << bits) - 1
        self._fill = initial & self._mask
        self._cells: dict[int, int] = {}
        self.reads = 0
        self.writes = 0

    def read(self, index: int) -> int:
        if not 0 <= index < self.size:
            self._check(index)
        self.reads += 1
        return self._cells.get(index, self._fill)

    def write(self, index: int, value: int) -> None:
        if not 0 <= index < self.size:
            self._check(index)
        self.writes += 1
        self._cells[index] = int(value) & self._mask

    def _check(self, index: int) -> None:
        """Raise for an out-of-range index (called only to raise)."""
        raise IndexError(
            f"register {self.name!r} index {index} out of range [0, {self.size})"
        )

    def reset(self, value: int = 0) -> None:
        self._fill = value & self._mask
        self._cells = {}

    def snapshot(self) -> list[int]:
        cells = [self._fill] * self.size
        for index, value in self._cells.items():
            cells[index] = value
        return cells

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[int]:
        return iter(self.snapshot())


class RegisterFile(dict[str, RegisterArray]):
    """Named collection of register arrays belonging to one switch.

    A ``dict`` subclass so ``registers["name"]`` — paid ~150 times per
    update request — is answered by the C-level subscript.
    """

    def define(self, name: str, size: int, bits: int = 32, initial: int = 0) -> RegisterArray:
        if name in self:
            raise ValueError(f"register array {name!r} already defined")
        array = self[name] = RegisterArray(name, size, bits, initial)
        return array

    def __missing__(self, name: str) -> RegisterArray:
        raise KeyError(f"no register array {name!r}")

    def names(self) -> list[str]:
        return sorted(self)
