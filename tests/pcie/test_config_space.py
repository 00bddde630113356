"""Unit tests for configuration space and the BIOS scan protocol."""

import pytest

from repro.errors import ConfigError
from repro.hw.bios import BIOS, MOTHERBOARDS
from repro.pcie.config_space import (CAP_MSI, Capability,
                                     ConfigSpace, VENDOR_NVIDIA)
from repro.units import GiB, KiB


def make_space():
    space = ConfigSpace(VENDOR_NVIDIA, 0x1028, 0x03, name="gpu0")
    space.add_bar(0, 64 * KiB, prefetchable=False)
    space.add_bar(1, 8 * GiB)
    space.add_capability(Capability(CAP_MSI))
    return space


class TestConfigSpace:
    def test_bar_sizes_power_of_two(self):
        space = ConfigSpace(1, 2, 3)
        with pytest.raises(ConfigError):
            space.add_bar(0, 3000)

    def test_duplicate_bar_rejected(self):
        space = make_space()
        with pytest.raises(ConfigError):
            space.add_bar(1, 4096)

    def test_64bit_bar_cannot_start_at_5(self):
        space = ConfigSpace(1, 2, 3)
        with pytest.raises(ConfigError):
            space.add_bar(5, 4096, is_64bit=True)

    def test_probe_unimplemented_reads_zero(self):
        assert make_space().probe_bar_size(3) == 0

    def test_sizing_probe_then_program(self):
        space = make_space()
        size = space.probe_bar_size(1)
        assert size == 8 * GiB
        space.program_bar(1, 16 * GiB)
        assert space.bars[1].assigned_base == 16 * GiB

    def test_program_without_probe_rejected(self):
        space = make_space()
        with pytest.raises(ConfigError, match="sizing probe"):
            space.program_bar(1, 16 * GiB)

    def test_misaligned_base_rejected(self):
        space = make_space()
        space.probe_bar_size(1)
        with pytest.raises(ConfigError, match="aligned"):
            space.program_bar(1, 4096)

    def test_enable_requires_all_bars_programmed(self):
        space = make_space()
        space.probe_bar_size(0)
        space.program_bar(0, 0x10000)
        with pytest.raises(ConfigError, match="unprogrammed"):
            space.enable()



class TestBIOSScan:
    def test_scan_assigns_and_enables(self):
        bios = BIOS(MOTHERBOARDS["Intel S2600IP"])
        space = make_space()
        regions = bios.scan_function(space)
        assert set(regions) == {0, 1}
        assert space.enabled
        assert space.bars[1].assigned_base == regions[1].base
        assert regions[1].base % (8 * GiB) == 0

    def test_node_scan_produces_enabled_functions(self, peach2_node):
        node, board = peach2_node
        assert board.config_space.enabled
        for gpu in node.gpus:
            assert gpu.config_space.enabled
            assert gpu.config_space.bars[1].assigned_base == gpu.bar1.base
        # PEACH2's experimental vendor:device.
        assert (board.config_space.vendor_id,
                board.config_space.device_id) == (0x1813, 0x7002)
