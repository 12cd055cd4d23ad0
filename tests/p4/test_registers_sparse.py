"""Sparse register storage behaves exactly like a dense array.

``RegisterArray`` keeps only written cells; a dense ``list`` kept here
is the reference.  Random op sequences must agree on every value,
counter and error.  The two size tests are the alarm for a dense array coming back.
"""

import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataplane import P4UpdateProgram
from repro.harness.build import build_p4update_network
from repro.p4.registers import RegisterArray
from repro.params import SimParams
from repro.topo import TOPOLOGIES

#: (size, bits, initial): a one-cell array, an initial value wider than
#: the cell, a non-zero fill, and the UIB's real geometry.
GEOMETRIES = [(1, 1, 0), (3, 4, 0x1F), (8, 8, 7), (4096, 32, 0), (5, 16, 65535)]


class DenseReference:
    """The pre-sparse ``RegisterArray`` body: one list slot per cell."""

    def __init__(self, name, size, bits, initial):
        self.name, self.size = name, size
        self.mask = (1 << bits) - 1
        self.cells = [initial & self.mask] * size
        self.reads = self.writes = 0

    def check(self, index):
        if not 0 <= index < self.size:
            raise IndexError(
                f"register {self.name!r} index {index} out of range [0, {self.size})"
            )

    def read(self, index):
        self.check(index)
        self.reads += 1
        return self.cells[index]

    def write(self, index, value):
        self.check(index)
        self.writes += 1
        self.cells[index] = int(value) & self.mask

    def reset(self, value=0):
        self.cells = [value & self.mask] * self.size


def _outcome(call):
    try:
        return ("ok", call())
    except IndexError as exc:
        return ("IndexError", str(exc))


def _same_state(array, dense):
    assert array.snapshot() == dense.cells
    assert list(array) == dense.cells
    assert len(array) == dense.size == array.size
    assert (array.reads, array.writes) == (dense.reads, dense.writes)


#: Offsets relative to the array: a few land out of range on each side.
_INDEX = st.integers(min_value=-2, max_value=9)
_VALUE = st.integers(min_value=-3, max_value=1 << 33)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("read"), _INDEX),
        st.tuples(st.just("write"), _INDEX, _VALUE),
        st.tuples(st.just("reset"), _VALUE),
        st.tuples(st.just("reset")),
        st.tuples(st.just("compare")),
    ),
    max_size=40,
)


@given(st.sampled_from(GEOMETRIES), _OPS)
@settings(max_examples=200, deadline=None)
def test_sparse_array_matches_a_dense_list(geometry, ops):
    size, bits, initial = geometry
    array = RegisterArray("r", size, bits, initial)
    dense = DenseReference("r", size, bits, initial)
    _same_state(array, dense)
    for op, *args in ops:
        if op in ("read", "write"):
            # Spread indices over the whole array, keeping the strays.
            index = args[0] if args[0] < 4 else size - 8 + args[0]
            args = [index, *args[1:]]
            assert _outcome(lambda: getattr(array, op)(*args)) == _outcome(
                lambda: getattr(dense, op)(*args)
            )
        elif op == "reset":
            array.reset(*args)
            dense.reset(*args)
        _same_state(array, dense)
    assert (array.name, array.bits) == ("r", bits)


def test_snapshot_is_a_private_copy():
    array = RegisterArray("r", 4, initial=3)
    array.write(1, 9)
    snapshot = array.snapshot()
    snapshot[0] = 99
    assert array.snapshot() == [3, 9, 3, 3]


def test_an_untouched_uib_pickles_small():
    # 20 arrays x 4096 cells, nothing written: about 650 KB of list
    # slots when every cell held one.
    P4UpdateProgram()                                    # imports
    gc.collect()
    tracemalloc.start()
    try:
        program = P4UpdateProgram()
        gc.collect()
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert program.registers.names()
    assert held < 16_384


def test_a_fresh_chinanet_deployment_holds_under_2mb():
    # 38 switches x 20 arrays x 4096 cells were 25.3 MB of list slots.
    factory = TOPOLOGIES["chinanet"]
    build_p4update_network(factory(), params=SimParams(seed=0))  # imports, memo
    gc.collect()
    tracemalloc.start()
    try:
        deployment = build_p4update_network(factory(), params=SimParams(seed=0))
        gc.collect()
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(deployment.switches) == 38
    assert held < 2_000_000


@pytest.mark.parametrize("size, bits, initial", GEOMETRIES)
def test_reset_changes_the_fill_of_every_cell(size, bits, initial):
    array = RegisterArray("r", size, bits, initial)
    array.write(size - 1, 1)
    array.reset(5)
    assert array.snapshot() == [5 & ((1 << bits) - 1)] * size
    assert array.read(0) == 5 & ((1 << bits) - 1)
