"""PCIe configuration space: IDs, BAR sizing probes, capabilities.

Models the part of PCIe that runs at boot: every function exposes a 4-KiB
configuration space with vendor/device IDs, class code, and Base Address
Registers that the BIOS *sizes* with the standard probe protocol (write
all-ones, read back the size mask, then program the base).  The node's
BIOS performs a real scan over these spaces during
:meth:`~repro.hw.node.ComputeNode.enumerate`-time BAR assignment — which
is exactly the step the paper's §V critique of NTB is about ("during the
BIOS scan at boot time, the host must recognize the EPs").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError

CONFIG_SPACE_BYTES = 4096

# Standard header offsets (type 0).
REG_VENDOR_ID = 0x00
REG_DEVICE_ID = 0x02
REG_COMMAND = 0x04
REG_STATUS = 0x06
REG_CLASS_CODE = 0x09
REG_BAR0 = 0x10
REG_CAP_POINTER = 0x34

# Command-register bits.
CMD_MEMORY_SPACE = 0x2
CMD_BUS_MASTER = 0x4

# Capability IDs.
CAP_MSI = 0x05
CAP_PCIE = 0x10

#: Vendor IDs used by the modelled devices.
VENDOR_NVIDIA = 0x10DE
VENDOR_MELLANOX = 0x15B3
VENDOR_UNIV_TSUKUBA = 0x1813  # PEACH2's experimental ID
VENDOR_PLX = 0x10B5


@dataclass
class BARDescriptor:
    """One implemented BAR: its size and the address the BIOS assigned."""

    index: int
    size: int
    is_64bit: bool = True
    prefetchable: bool = True
    assigned_base: Optional[int] = None

    def __post_init__(self) -> None:
        if self.size & (self.size - 1) or self.size < 128:
            raise ConfigError(
                f"BAR{self.index}: size {self.size:#x} must be a power of "
                "two >= 128")


@dataclass
class Capability:
    """A capability-list entry."""

    cap_id: int
    payload: bytes = b""


class ConfigSpace:
    """Type-0 configuration space of one PCIe function."""

    def __init__(self, vendor_id: int, device_id: int, class_code: int,
                 name: str = ""):
        self.name = name
        self.vendor_id = vendor_id
        self.device_id = device_id
        self.class_code = class_code
        self.command = 0
        self.bars: Dict[int, BARDescriptor] = {}
        self.capabilities: List[Capability] = []
        self._probing: Dict[int, bool] = {}

    # -- construction -----------------------------------------------------------

    def add_bar(self, index: int, size: int, is_64bit: bool = True,
                prefetchable: bool = True) -> BARDescriptor:
        """Implement a BAR (64-bit BARs occupy two register slots)."""
        if not 0 <= index <= 5:
            raise ConfigError(f"BAR index {index} out of range")
        if index in self.bars:
            raise ConfigError(f"{self.name}: BAR{index} already implemented")
        if is_64bit and index >= 5:
            raise ConfigError("a 64-bit BAR cannot start at BAR5")
        bar = BARDescriptor(index, size, is_64bit, prefetchable)
        self.bars[index] = bar
        return bar

    def add_capability(self, capability: Capability) -> None:
        """Append to the capability list."""
        self.capabilities.append(capability)

    # -- the BIOS-facing protocol ---------------------------------------------------

    def probe_bar_size(self, index: int) -> int:
        """The sizing handshake: write all-ones, read the mask back.

        Returns the BAR's size (0 for an unimplemented BAR, as reading
        zeros would indicate).
        """
        bar = self.bars.get(index)
        if bar is None:
            return 0
        self._probing[index] = True
        return bar.size

    def program_bar(self, index: int, base: int) -> None:
        """Write the assigned base address after a sizing probe."""
        bar = self.bars.get(index)
        if bar is None:
            raise ConfigError(f"{self.name}: BAR{index} not implemented")
        if not self._probing.get(index):
            raise ConfigError(
                f"{self.name}: BAR{index} programmed without a sizing probe")
        if base % bar.size:
            raise ConfigError(
                f"{self.name}: BAR{index} base {base:#x} not naturally "
                f"aligned to {bar.size:#x}")
        bar.assigned_base = base
        self._probing[index] = False

    def enable(self) -> None:
        """Set Memory Space + Bus Master Enable (end of enumeration)."""
        for bar in self.bars.values():
            if bar.assigned_base is None:
                raise ConfigError(
                    f"{self.name}: enabling with unprogrammed BAR{bar.index}")
        self.command |= CMD_MEMORY_SPACE | CMD_BUS_MASTER

    @property
    def enabled(self) -> bool:
        """True once memory decoding and bus mastering are on."""
        return bool(self.command & CMD_MEMORY_SPACE)
