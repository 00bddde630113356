"""Property tests of the packetizer split.

Over random addresses, lengths and chunk limits, aligned or not, the
chunks ``repro.pcie.packetizer`` returns tile the transfer exactly and
respect both the chunk limit and the 4-KiB page boundary.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.pcie.packetizer import PAGE_BOUNDARY, split_transfer

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
