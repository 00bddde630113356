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

import numpy as np

from repro.errors import PCIeError

PAGE_BOUNDARY = 4096
DEFAULT_MPS = 256
DEFAULT_MRRS = 256

#: Below this many chunks the scalar loop beats the numpy fixed cost.
_VECTOR_MIN_CHUNKS = 16

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


def _split_vectorized(address: int, nbytes: int, max_chunk: int) -> List[Chunk]:
    """Chunk list for the aligned regular case, built with one arange.

    Applies only when the start address sits on a ``max_chunk`` boundary
    and ``max_chunk`` divides the 4-KiB page (the layout every DMA chain
    in the reproduction uses): every chunk except a final straggler is
    exactly ``max_chunk`` long and none can straddle a page, so the greedy
    scalar walk degenerates to a fixed stride.  The result is equal,
    element for element, to ``list(_split(...))``
    (tests/properties/test_props_packetizer.py holds the two together).
    """
    full = nbytes // max_chunk
    chunks: List[Chunk] = list(zip(
        (address + np.arange(full, dtype=np.int64) * max_chunk).tolist(),
        (full * (max_chunk,))))
    tail = nbytes - full * max_chunk
    if tail:
        chunks.append((address + full * max_chunk, tail))
    return chunks


def split_transfer(address: int, nbytes: int,
                   mps: int = DEFAULT_MPS) -> List[Chunk]:
    """Chunk a write transfer into MWr payload pieces."""
    if (nbytes >= mps * _VECTOR_MIN_CHUNKS and mps > 0
            and address % mps == 0 and PAGE_BOUNDARY % mps == 0):
        return _split_vectorized(address, nbytes, mps)
    return list(_split(address, nbytes, mps))


def split_read_requests(address: int, nbytes: int,
                        mrrs: int = DEFAULT_MRRS) -> List[Chunk]:
    """Chunk a read transfer into MRd request pieces."""
    if (nbytes >= mrrs * _VECTOR_MIN_CHUNKS and mrrs > 0
            and address % mrrs == 0 and PAGE_BOUNDARY % mrrs == 0):
        return _split_vectorized(address, nbytes, mrrs)
    return list(_split(address, nbytes, mrrs))
