"""Unit tests for BIOS enumeration and node assembly."""

import numpy as np
import pytest

from repro.errors import BIOSError, ConfigError
from repro.hw.bios import BARRequest, BIOS, MOTHERBOARDS
from repro.hw.node import ComputeNode, NodeParams
from repro.peach2.board import PEACH2Board, TCA_WINDOW_BYTES
from repro.units import GiB, KiB, MiB


class TestBIOS:
    def test_natural_alignment(self):
        bios = BIOS(MOTHERBOARDS["SuperMicro X9DRG-QF"])
        small = bios.assign(BARRequest("dev", 0, 64 * KiB))
        big = bios.assign(BARRequest("dev", 4, 512 * GiB))
        assert big.base % (512 * GiB) == 0
        assert small.base % (64 * KiB) == 0
        assert not small.overlaps(big)

    def test_deterministic_across_nodes(self):
        def run():
            bios = BIOS(MOTHERBOARDS["Intel S2600IP"])
            return [bios.assign(BARRequest("d", i, size)).base
                    for i, size in enumerate((64 * KiB, 8 * GiB, 512 * GiB))]

        assert run() == run()

    def test_footnote2_consumer_board_rejects_512g_bar(self):
        bios = BIOS(MOTHERBOARDS["generic-consumer"])
        with pytest.raises(BIOSError, match="footnote 2"):
            bios.assign(BARRequest("peach2", 4, TCA_WINDOW_BYTES))

    def test_non_power_of_two_rejected(self):
        bios = BIOS(MOTHERBOARDS["Intel S2600IP"])
        with pytest.raises(BIOSError):
            bios.assign(BARRequest("d", 0, 3 * KiB))


class TestComputeNode:
    def test_gpu_count_bounds(self, engine):
        with pytest.raises(ConfigError):
            ComputeNode(engine, "n", NodeParams(num_gpus=0))
        with pytest.raises(ConfigError):
            ComputeNode(engine, "n", NodeParams(num_gpus=5))

    def test_enumerate_builds_address_space(self, node):
        names = [r.name for r in node.address_space.regions]
        assert any("dram" in n for n in names)
        assert any("bar1" in n for n in names)
        assert "msi" in names

    def test_double_enumerate_rejected(self, node):
        with pytest.raises(ConfigError):
            node.enumerate()

    def test_adapter_after_enumerate_rejected(self, node):
        board = PEACH2Board(node.engine, "late")
        with pytest.raises(ConfigError, match="before enumerate"):
            node.install_adapter(board)

    def test_unknown_motherboard(self, engine):
        with pytest.raises(ConfigError):
            ComputeNode(engine, "n", NodeParams(motherboard="nope"))

    def test_dram_alloc_is_aligned_and_bounded(self, node):
        a = node.dram_alloc(1000)
        b = node.dram_alloc(1000)
        assert a % 4096 == 0 and b % 4096 == 0 and b > a
        with pytest.raises(ConfigError):
            node.dram_alloc(node.params.dram_bytes)

    def test_bus_read_write_dram(self, node):
        data = np.arange(32, dtype=np.uint8)
        addr = node.dram_alloc(64)
        node.bus_write(addr, data)
        assert np.array_equal(node.bus_read(addr, 32), data)

    def test_bus_read_write_gpu_bar(self, node):
        gpu = node.gpus[0]
        data = np.arange(32, dtype=np.uint8)
        node.bus_write(gpu.bar1.base + 128, data)
        assert np.array_equal(node.bus_read(gpu.bar1.base + 128, 32), data)

    def test_cpu_store_reaches_dram(self, node):
        addr = node.dram_alloc(64)
        node.cpu.store_u32(addr, 0x12345678)
        node.engine.run()
        got = node.dram.cpu_read(addr, 4)
        assert int.from_bytes(got.tobytes(), "little") == 0x12345678

    def test_cpu_load_from_gpu_bar(self, node):
        gpu = node.gpus[0]
        gpu.pin_pages(0, 4096)
        gpu.memory.write(16, np.arange(8, dtype=np.uint8))

        def proc():
            data = yield node.cpu.load(gpu.bar1.base + 16, 8)
            return data

        assert node.engine.run_process(proc()) == bytes(range(8))

    def test_identical_nodes_identical_maps(self, engine):
        n1 = ComputeNode(engine, "a", NodeParams(num_gpus=2))
        n2 = ComputeNode(engine, "b", NodeParams(num_gpus=2))
        n1.enumerate()
        n2.enumerate()
        bases1 = [r.base for r in n1.address_space.regions]
        bases2 = [r.base for r in n2.address_space.regions]
        assert bases1 == bases2
