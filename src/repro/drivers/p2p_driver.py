"""The P2P driver: GPUDirect Support for RDMA page pinning.

§IV: "we develop two device drivers: the PEACH2 driver ... and the P2P
driver for enabling GPUDirect Support for RDMA".  Given the access token
that CUDA's ``cuPointerGetAttribute(CU_POINTER_ATTRIBUTE_P2P_TOKENS)``
returns, this driver pins the GPU pages into the PCIe address space so
other devices (PEACH2, IB HCAs) can address them directly (§III-C steps
3-4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DriverError
from repro.hw.gpu import GPU


@dataclass(frozen=True)
class PinnedMapping:
    """One pinned range: its bus address and extent."""

    gpu_name: str
    bus_address: int
    offset: int
    nbytes: int


class P2PDriver:
    """Pins GPU memory into the PCIe address space."""

    def pin(self, gpu: GPU, token: object, offset: int,
            nbytes: int) -> PinnedMapping:
        """Pin ``nbytes`` of GPU memory at ``offset`` using a P2P token.

        The token must come from the CUDA runtime for the same allocation
        (it carries the GPU identity); this mirrors the permission check
        the real driver performs.
        """
        from repro.cuda.pointer import P2PToken  # local import: layering

        if not isinstance(token, P2PToken):
            raise DriverError("pin() needs the CU_POINTER_ATTRIBUTE_P2P_TOKENS "
                              "value from cuPointerGetAttribute")
        if token.gpu_name != gpu.name:
            raise DriverError(
                f"token is for {token.gpu_name}, not {gpu.name}")
        if not (token.offset <= offset
                and offset + nbytes <= token.offset + token.nbytes):
            raise DriverError("token does not cover the requested range")
        gpu.pin_pages(offset, nbytes)
        return PinnedMapping(gpu.name, gpu.offset_to_bar(offset), offset,
                             nbytes)
