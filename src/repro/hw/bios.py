"""BIOS enumeration: BAR assignment under motherboard constraints.

The paper's footnote 2 is a real deployment constraint: PEACH2 requests a
512-Gbyte BAR for the TCA window, and "currently, only a few motherboards
can support the PEACH2 board".  The simulated BIOS reproduces that —
motherboards advertise the largest 64-bit BAR they can place, and
enumeration fails on boards that cannot host the card.

Assignment is deterministic: BARs are naturally aligned (as PCIe requires)
and allocated in request order from a fixed 64-bit window base, so every
node of a sub-cluster ends up with identical addresses — which is what
lets the TCA address map be "commonly shared by every node" (§III-E).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import BIOSError
from repro.pcie.address import Region, align_up
from repro.units import GiB, MiB


@dataclass(frozen=True)
class Motherboard:
    """A motherboard model and the largest single BAR its BIOS can map."""

    name: str
    max_bar_bytes: int


#: Boards from Table II (both can host PEACH2) plus a generic board that
#: cannot, to demonstrate the footnote-2 failure mode.
MOTHERBOARDS: Dict[str, Motherboard] = {
    "SuperMicro X9DRG-QF": Motherboard("SuperMicro X9DRG-QF", 1024 * GiB),
    "Intel S2600IP": Motherboard("Intel S2600IP", 1024 * GiB),
    "generic-consumer": Motherboard("generic-consumer", 256 * MiB),
}

#: Base of the 64-bit prefetchable window the BIOS allocates BARs from.
BAR_WINDOW_BASE = 0x40_0000_0000  # 256 GiB


@dataclass(frozen=True)
class BARRequest:
    """One BAR a device asks the BIOS to place."""

    device: str
    index: int
    size: int


class BIOS:
    """Deterministic first-fit BAR allocator and config-space scanner."""

    def __init__(self, motherboard: Motherboard):
        self.motherboard = motherboard
        self._cursor = BAR_WINDOW_BASE
        self.assigned: List[Tuple[BARRequest, Region]] = []

    def scan_function(self, config_space) -> dict:
        """Enumerate one PCIe function via its configuration space.

        Runs the standard sizing handshake on every implemented BAR
        (probe with all-ones, read the size, program the base), then sets
        Memory Space + Bus Master Enable.  Returns ``{bar_index: Region}``.
        """
        regions = {}
        for index in sorted(config_space.bars):
            size = config_space.probe_bar_size(index)
            region = self.assign(BARRequest(config_space.name, index, size))
            config_space.program_bar(index, region.base)
            regions[index] = region
        config_space.enable()
        return regions

    def assign(self, request: BARRequest) -> Region:
        """Place one BAR; naturally aligned; raises on oversize BARs."""
        if request.size <= 0 or request.size & (request.size - 1):
            raise BIOSError(
                f"BAR size {request.size:#x} is not a power of two "
                f"({request.device} BAR{request.index})")
        if request.size > self.motherboard.max_bar_bytes:
            raise BIOSError(
                f"motherboard {self.motherboard.name!r} cannot assign a "
                f"{request.size // GiB}-GiB BAR for {request.device} "
                f"BAR{request.index} (max "
                f"{self.motherboard.max_bar_bytes // GiB} GiB) — see the "
                "paper's footnote 2")
        base = align_up(self._cursor, request.size)
        region = Region(base, request.size,
                        f"{request.device}.bar{request.index}")
        self._cursor = base + request.size
        self.assigned.append((request, region))
        return region
