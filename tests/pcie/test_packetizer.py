"""Unit tests for transfer packetization."""

import pytest

from repro.errors import PCIeError
from repro.pcie.packetizer import split_read_requests, split_transfer


def test_small_transfer_single_chunk():
    assert split_transfer(0x1000, 100) == [(0x1000, 100)]


def test_mps_splitting():
    chunks = split_transfer(0, 1024, mps=256)
    assert chunks == [(0, 256), (256, 256), (512, 256), (768, 256)]


def test_4k_boundary_never_crossed():
    chunks = split_transfer(4096 - 100, 300, mps=256)
    for addr, size in chunks:
        assert (addr // 4096) == ((addr + size - 1) // 4096)
    assert sum(s for _, s in chunks) == 300
    # The first chunk stops exactly at the boundary.
    assert chunks[0] == (4096 - 100, 100)


def test_unaligned_start():
    chunks = split_transfer(10, 600, mps=256)
    assert chunks[0][0] == 10
    assert sum(s for _, s in chunks) == 600


def test_zero_length():
    assert split_transfer(0, 0) == []


def test_negative_rejected():
    with pytest.raises(PCIeError):
        split_transfer(0, -1)


def test_bad_mps_rejected():
    with pytest.raises(PCIeError):
        split_transfer(0, 10, mps=0)


def test_read_requests_use_mrrs():
    chunks = split_read_requests(0, 1024, mrrs=512)
    assert chunks == [(0, 512), (512, 512)]


def test_chunks_are_contiguous():
    chunks = split_transfer(123, 5000, mps=256)
    pos = 123
    for addr, size in chunks:
        assert addr == pos
        pos += size
    assert pos == 123 + 5000
