"""Splitting memory transfers into TLP-sized pieces.

PCIe rules observed here:

* a Memory Write payload never exceeds the Max Payload Size (MPS) and never
  crosses a 4-KiB address boundary;
* a Memory Read request never asks for more than the Max Read Request Size
  (MRRS) and never crosses a 4-KiB boundary either.

The evaluated platform uses MPS = 256 B (§IV-A1), which is what makes
Eq. (1) come out to 3.66 Gbytes/s.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.errors import PCIeError

PAGE_BOUNDARY = 4096
DEFAULT_MPS = 256
DEFAULT_MRRS = 256

Chunk = Tuple[int, int]  # (address, nbytes)


def _split(address: int, nbytes: int, max_chunk: int) -> Iterator[Chunk]:
    if nbytes < 0:
        raise PCIeError(f"negative transfer length {nbytes}")
    if max_chunk <= 0:
        raise PCIeError(f"invalid chunk limit {max_chunk}")
    offset = 0
    while offset < nbytes:
        addr = address + offset
        to_boundary = PAGE_BOUNDARY - (addr % PAGE_BOUNDARY)
        take = min(nbytes - offset, max_chunk, to_boundary)
        yield addr, take
        offset += take


def split_transfer(address: int, nbytes: int,
                   mps: int = DEFAULT_MPS) -> List[Chunk]:
    """Chunk a write transfer into MWr payload pieces."""
    return list(_split(address, nbytes, mps))


def split_read_requests(address: int, nbytes: int,
                        mrrs: int = DEFAULT_MRRS) -> List[Chunk]:
    """Chunk a read transfer into MRd request pieces."""
    return list(_split(address, nbytes, mrrs))
