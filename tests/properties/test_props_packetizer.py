"""Property tests holding the packetizer fast paths to the greedy walk.

``repro.pcie.packetizer`` has two implementations of the same split:
the greedy scalar generator ``_split`` (the definition) and the
vectorized ``_split_vectorized`` used for long aligned transfers.  This
file keeps them equal, chunk for chunk, over random addresses, lengths
and chunk limits, including the unaligned cases the vectorized path
must refuse.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.pcie.packetizer import (PAGE_BOUNDARY, _split, split_read_requests,
                                   split_transfer)

# Chunk limits that divide the page (the hardware-plausible MPS/MRRS
# ladder) plus awkward ones that do not.
_limits = st.sampled_from([1, 64, 128, 256, 512, 4096, 100, 3000, 5000])
_addresses = st.one_of(
    st.integers(0, 2**40).map(lambda a: a - a % 256),  # aligned
    st.integers(0, 2**40))                             # arbitrary
_lengths = st.one_of(st.integers(0, 64), st.integers(0, 10**5),
                     st.sampled_from([0, 256 * 16, 256 * 16 - 1,
                                      256 * 16 + 1, PAGE_BOUNDARY * 3]))


@given(_addresses, _lengths, _limits)
def test_split_transfer_matches_greedy_walk(address, nbytes, mps):
    assert split_transfer(address, nbytes, mps) == \
        list(_split(address, nbytes, mps))


@given(_addresses, _lengths, _limits)
def test_split_read_requests_matches_greedy_walk(address, nbytes, mrrs):
    assert split_read_requests(address, nbytes, mrrs) == \
        list(_split(address, nbytes, mrrs))


@given(_addresses, _lengths, _limits)
def test_split_covers_exactly_the_transfer(address, nbytes, mps):
    """Chunks tile [address, address+nbytes) gaplessly and respect both
    the chunk limit and the 4-KiB page boundary."""
    chunks = split_transfer(address, nbytes, mps)
    cursor = address
    for addr, take in chunks:
        assert addr == cursor
        assert 0 < take <= mps
        assert (addr % PAGE_BOUNDARY) + take <= PAGE_BOUNDARY
        cursor += take
    assert cursor == address + nbytes
