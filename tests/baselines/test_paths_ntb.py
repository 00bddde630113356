"""Unit tests for end-to-end paths and the NTB baseline."""

import pytest

from repro.baselines.ntb import NTBPair
from repro.baselines.paths import (ConventionalPath, GDRPath, MPIHostPath,
                                   TCADMAPath, TCAPIOPath, VerbsPath)
from repro.errors import ConfigError
from repro.units import KiB, MiB


class TestPaths:
    def test_tca_pio_beats_everything_at_8_bytes(self):
        tca = TCAPIOPath().transfer(8)
        verbs = VerbsPath().transfer(8)
        mpi = MPIHostPath().transfer(8)
        assert tca.latency_us < verbs.latency_us < mpi.latency_us
        assert tca.latency_us < 1.0  # sub-microsecond

    def test_pio_rejects_large_messages(self):
        with pytest.raises(ConfigError):
            TCAPIOPath().transfer(1 * MiB)

    def test_verbs_bandwidth_wins_large_host_messages(self):
        tca = TCADMAPath().transfer(1 * MiB)
        verbs = VerbsPath().transfer(1 * MiB)
        # The two-phase DMAC halves TCA's large-message bandwidth (§IV-B2)
        # while a QDR rail streams at ~3.4 GB/s.
        assert verbs.bandwidth_gbytes > tca.bandwidth_gbytes

    def test_conventional_gpu_path_latency_order(self):
        conv = ConventionalPath().transfer(64)
        gdr = GDRPath().transfer(64)
        tca = TCADMAPath(gpu=True).transfer(64)
        # The three-copy path is the motivation: ~5x worse than direct.
        assert conv.latency_us > 3 * tca.latency_us
        # TCA and GDR are both ~fixed-cost-bound at 64 B (may tie).
        assert tca.latency_us <= gdr.latency_us < conv.latency_us

    def test_pipelined_conventional_beats_plain_for_large(self):
        plain = ConventionalPath().transfer(1 * MiB)
        piped = ConventionalPath(chunk_bytes=128 * KiB).transfer(1 * MiB)
        assert piped.latency_us < plain.latency_us

    def test_pipelined_dmac_doubles_put_bandwidth(self):
        two_phase = TCADMAPath().transfer(512 * KiB)
        pipelined = TCADMAPath(pipelined=True).transfer(512 * KiB)
        assert pipelined.bandwidth_gbytes > 1.7 * two_phase.bandwidth_gbytes

    def test_result_fields(self):
        result = TCAPIOPath().transfer(64)
        assert result.nbytes == 64
        assert result.elapsed_ps > 0
        assert result.bandwidth_gbytes > 0
        assert result.path == "tca-pio"


class TestNTB:
    def test_store_latency_comparable_to_peach2(self):
        pair = NTBPair()
        latency = pair.store_latency_ns()
        assert 500 < latency < 1200

    def test_cut_cable_requires_reboot(self):
        pair = NTBPair()
        assert not pair.hosts_require_reboot
        pair.cut_cable()
        assert pair.hosts_require_reboot

    def test_window_translation(self):
        pair = NTBPair()
        pair.store_latency_ns(payload=0xAB, dst_offset=0x5000)
        got = pair.node_b.dram.cpu_read(0x5000, 1)
        assert got[0] == 0xAB

    def test_ntb_must_exist_at_boot(self, engine):
        """§V: NTB endpoints must be present during the BIOS scan."""
        from repro.baselines.ntb import NTBBridge
        from repro.hw.node import ComputeNode, NodeParams

        node = ComputeNode(engine, "late", NodeParams(num_gpus=1))
        node.enumerate()
        bridge = NTBBridge(engine, "ep")
        with pytest.raises(ConfigError):
            node.install_adapter(bridge)

    def test_out_of_window_access_rejected(self):
        from repro.errors import PCIeError

        pair = NTBPair()
        pair.node_a.cpu.store_u32(pair.ntb_a.window.end + 8, 1)
        with pytest.raises(Exception):
            pair.engine.run()
