"""PCIe address space: regions, BARs, and interval lookup.

Each compute node owns a single flat 64-bit PCIe address space shared by
every device below its root complexes (§III-C: "all of the devices ...
share a single PCIe address space").  Regions are non-overlapping,
naturally-aligned windows claimed by devices (host DRAM window, GPU BAR1,
PEACH2's control BAR and its huge TCA window).  Lookup is a bisect over
sorted bases — the hot path of every routed packet.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, List, Optional

from repro.errors import AddressError, ConfigError


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to the next multiple of ``alignment``."""
    return -(-value // alignment) * alignment


@dataclass(frozen=True)
class Region:
    """A half-open address window ``[base, base + size)``."""

    base: int
    size: int
    name: str = ""

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ConfigError(f"region {self.name!r} has size {self.size}")
        if self.base < 0:
            raise ConfigError(f"region {self.name!r} has negative base")

    @property
    def end(self) -> int:
        """One past the last address of the region."""
        return self.base + self.size

    def contains(self, address: int, length: int = 1) -> bool:
        """True if ``[address, address+length)`` lies inside the region."""
        return self.base <= address and address + length <= self.end

    def offset_of(self, address: int) -> int:
        """Offset of ``address`` from the region base (must be inside)."""
        if not self.contains(address):
            raise AddressError(
                f"0x{address:x} outside region {self.name!r} "
                f"[0x{self.base:x}, 0x{self.end:x})")
        return address - self.base

    def overlaps(self, other: "Region") -> bool:
        """True if the two regions share any address."""
        return self.base < other.end and other.base < self.end


@dataclass(frozen=True)
class BAR:
    """A Base Address Register as assigned by the BIOS at enumeration.

    ``index`` is the BAR number on the device, ``region`` the window the
    BIOS carved out of the node's address space.
    """

    index: int
    region: Region

    @property
    def base(self) -> int:
        """Assigned base address."""
        return self.region.base

    @property
    def size(self) -> int:
        """Window size in bytes."""
        return self.region.size


class AddressSpace:
    """Sorted, non-overlapping set of regions, each owned by a target.

    ``target`` is opaque to this class — switches store ports, memories
    store themselves.  ``lookup`` raises :class:`AddressError` for unmapped
    addresses, which models a PCIe Unsupported Request.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._bases: List[int] = []
        self._regions: List[Region] = []
        self._targets: List[Any] = []

    def __len__(self) -> int:
        return len(self._regions)

    @property
    def regions(self) -> List[Region]:
        """All mapped regions in ascending base order (copy)."""
        return list(self._regions)

    def add(self, region: Region, target: Any) -> Region:
        """Map ``region`` to ``target``; regions must not overlap."""
        idx = bisect_right(self._bases, region.base)
        for neighbor in self._regions[max(0, idx - 1):idx + 1]:
            if neighbor.overlaps(region):
                raise ConfigError(
                    f"{self.name}: region {region.name!r} "
                    f"[0x{region.base:x},0x{region.end:x}) overlaps "
                    f"{neighbor.name!r} [0x{neighbor.base:x},0x{neighbor.end:x})")
        self._bases.insert(idx, region.base)
        self._regions.insert(idx, region)
        self._targets.insert(idx, target)
        return region

    def lookup(self, address: int, length: int = 1) -> Any:
        """Target owning ``[address, address+length)``; raises if unmapped.

        A range straddling two regions is rejected: the packetizer always
        splits at 4-KiB boundaries and regions are at least page aligned,
        so a straddle means a configuration bug.
        """
        _, target = self.lookup_region(address, length)
        return target

    def lookup_region(self, address: int, length: int = 1):
        """(region, target) pair owning the given range."""
        idx = bisect_right(self._bases, address) - 1
        if idx >= 0:
            region = self._regions[idx]
            if region.contains(address, length):
                return region, self._targets[idx]
            if region.contains(address):
                raise AddressError(
                    f"{self.name}: range 0x{address:x}+{length} straddles "
                    f"the end of region {region.name!r}")
        raise AddressError(f"{self.name}: unmapped address 0x{address:x}")

    def find(self, name: str) -> Region:
        """Region by name (for tests and diagnostics)."""
        for region in self._regions:
            if region.name == name:
                return region
        raise KeyError(name)
