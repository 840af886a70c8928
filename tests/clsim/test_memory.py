"""Tests for buffers, local memory and access accounting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.clsim import (
    Buffer,
    BufferOutOfBoundsError,
    BufferSizeError,
    LocalMemory,
    LocalMemoryExceededError,
    PrivateMemory,
    transactions_for_row_segment,
)


class TestBuffer:
    def test_creation_copies_data(self):
        source = np.arange(12, dtype=np.float32).reshape(3, 4)
        buf = Buffer(source, name="input")
        source[0, 0] = 99.0
        assert buf.array[0, 0] == 0.0
        assert buf.shape == (3, 4)
        assert buf.itemsize == 4
        assert buf.nbytes == 48
        assert buf.size == 12

    def test_empty_buffer_rejected(self):
        with pytest.raises(BufferSizeError):
            Buffer(np.zeros((0,)), name="empty")

    def test_read_write_update_counters(self):
        buf = Buffer(np.zeros((4, 4)))
        buf.write((1, 2), 5.0)
        assert buf.read((1, 2)) == 5.0
        assert buf.counters.writes == 1
        assert buf.counters.reads == 1
        assert buf.counters.total == 2

    def test_out_of_bounds_read(self):
        buf = Buffer(np.zeros((4, 4)))
        with pytest.raises(BufferOutOfBoundsError):
            buf.read((4, 0))
        with pytest.raises(BufferOutOfBoundsError):
            buf.read((0, -1))

    def test_rank_mismatch(self):
        buf = Buffer(np.zeros((4, 4)))
        with pytest.raises(BufferOutOfBoundsError):
            buf.read((1,))

    def test_read_clamped(self):
        buf = Buffer(np.arange(16, dtype=np.float64).reshape(4, 4))
        assert buf.read_clamped((-3, 10)) == buf.array[0, 3]

    def test_record_bulk_accesses(self):
        buf = Buffer(np.zeros((8, 8)))
        buf.record_reads(100)
        buf.record_writes(10)
        assert buf.counters.reads == 100
        assert buf.counters.writes == 10
        buf.reset_counters()
        assert buf.counters.total == 0

    def test_zeros(self):
        z = Buffer.zeros((2, 5), name="z")
        assert z.shape == (2, 5)
        assert float(z.array.sum()) == 0.0

    def test_copy_array_is_independent(self):
        buf = Buffer(np.ones((2, 2)))
        copy = buf.copy_array()
        copy[0, 0] = 7.0
        assert buf.array[0, 0] == 1.0


class TestLocalMemory:
    def test_allocate_and_access(self):
        local = LocalMemory(capacity_bytes=1024)
        tile = local.allocate("tile", (8, 8), dtype=np.float32)
        assert tile.shape == (8, 8)
        local.write("tile", (2, 3), 1.5)
        assert local.read("tile", (2, 3)) == pytest.approx(1.5)
        assert local.counters.reads == 1
        assert local.counters.writes == 1

    def test_allocate_is_idempotent(self):
        local = LocalMemory(capacity_bytes=1024)
        a = local.allocate("tile", (4, 4))
        b = local.allocate("tile", (4, 4))
        assert a is b
        assert local.allocated_bytes == 4 * 4 * 4

    def test_capacity_enforced(self):
        local = LocalMemory(capacity_bytes=100)
        with pytest.raises(LocalMemoryExceededError):
            local.allocate("big", (10, 10), dtype=np.float64)

    def test_reset_clears_tiles_and_counters(self):
        local = LocalMemory(capacity_bytes=4096)
        local.allocate("tile", (4,))
        local.record_reads(5)
        local.reset()
        assert not local.has_tile("tile")
        assert local.counters.total == 0


class TestPrivateMemory:
    def test_store_load_and_counters(self):
        private = PrivateMemory()
        private.store("x", 3)
        assert private.load("x") == 3
        assert "x" in private
        assert private.counters.reads == 1
        assert private.counters.writes == 1


class TestTransactions:
    @pytest.mark.parametrize(
        "elements,itemsize,txn,expected",
        [
            (0, 4, 64, 0),
            (1, 4, 64, 1),
            (16, 4, 64, 1),
            (17, 4, 64, 2),
            (32, 4, 64, 2),
            (18, 4, 64, 2),
            (10, 8, 64, 2),
            (16, 4, 32, 2),
        ],
    )
    def test_examples(self, elements, itemsize, txn, expected):
        assert transactions_for_row_segment(elements, itemsize, txn) == expected

    @given(
        elements=st.integers(min_value=1, max_value=4096),
        itemsize=st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_transactions_cover_all_bytes(self, elements, itemsize):
        txn = 64
        count = transactions_for_row_segment(elements, itemsize, txn)
        assert count * txn >= elements * itemsize
        assert (count - 1) * txn < elements * itemsize
