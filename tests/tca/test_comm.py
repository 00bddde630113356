"""Unit tests for the TCA communication API."""

import numpy as np
import pytest

from repro.errors import ConfigError, DMAError, DriverError
from repro.peach2.descriptor import DescriptorFlags
from repro.tca.comm import STAGING_BYTES, TCAComm


@pytest.fixture
def comm4(cluster4):
    return TCAComm(cluster4)


class TestAddressing:
    def test_host_global(self, comm4, cluster4):
        addr = comm4.host_global(2, 0x1234)
        node, block, offset = cluster4.address_map.decompose(addr)
        assert (node, block, offset) == (2, 2, 0x1234)

    def test_gpu_global_limited_to_gpu01(self, comm4):
        comm4.gpu_global(1, 0, 0)
        comm4.gpu_global(1, 1, 0)
        with pytest.raises(ConfigError, match="QPI"):
            comm4.gpu_global(1, 2, 0)

    def test_register_gpu_memory_pins(self, comm4, cluster4):
        ptr = cluster4.cuda[1].cu_mem_alloc(0, 8192)
        addr = comm4.register_gpu_memory(1, ptr)
        assert ptr.gpu.is_pinned(ptr.offset, 8192)
        node, block, offset = cluster4.address_map.decompose(addr)
        assert (node, block, offset) == (1, 0, ptr.offset)


class TestPIO:
    def test_put_pio_delivers_bytes(self, comm4, cluster4):
        data = np.arange(200, dtype=np.uint8)
        drv = cluster4.driver(3)
        dst = comm4.host_global(3, drv.dma_buffer(0x100))
        comm4.put_pio(0, dst, data)
        cluster4.engine.run()
        assert np.array_equal(drv.read_dma_buffer(0x100, 200), data)

    def test_put_pio_flag_arrives_after_data(self, comm4, cluster4):
        data = np.full(64, 7, dtype=np.uint8)
        drv = cluster4.driver(1)
        dst = comm4.host_global(1, drv.dma_buffer(0))
        flag = comm4.host_global(1, drv.dma_buffer(0x1000))
        comm4.put_pio_flagged(0, dst, data, flag, 0x55AA)

        def waiter():
            tsc = yield cluster4.engine.process(
                drv.poll_dma_buffer_u32(0x1000, 0x55AA))
            return tsc

        cluster4.engine.run_process(waiter())
        # Flag visible implies the payload is visible (PCIe ordering).
        assert np.array_equal(drv.read_dma_buffer(0, 64), data)

    def test_pio_to_gpu_block(self, comm4, cluster4):
        ptr = cluster4.cuda[2].cu_mem_alloc(0, 4096)
        dst = comm4.register_gpu_memory(2, ptr)
        data = np.arange(32, dtype=np.uint8)
        comm4.put_pio(0, dst, data)
        cluster4.engine.run()
        assert np.array_equal(ptr.gpu.memory.read(ptr.offset, 32), data)


class TestDMA:
    def test_two_phase_descriptors(self, comm4, cluster4):
        chain = comm4.put_dma_descriptors(0, 0x5000,
                                          comm4.host_global(1, 0x100), 4096)
        assert len(chain) == 2
        assert chain[1].flags & DescriptorFlags.FENCE
        chip = cluster4.board(0).chip
        assert chip.is_internal_address(chain[0].dst)
        assert chain[1].src == chain[0].dst

    def test_large_transfer_splits_into_staged_pairs(self, comm4):
        chain = comm4.put_dma_descriptors(0, 0, comm4.host_global(1, 0),
                                          STAGING_BYTES * 2 + 5)
        assert len(chain) == 6

    def test_put_dma_moves_data(self, comm4, cluster4):
        engine = cluster4.engine
        data = np.random.default_rng(0).integers(0, 256, 20000,
                                                 dtype=np.uint8)
        src = cluster4.driver(0).dma_buffer(0)
        cluster4.node(0).dram.cpu_write(src, data)
        dst = comm4.host_global(2, cluster4.driver(2).dma_buffer(0))
        elapsed = engine.run_process(comm4.put_dma(0, src, dst, len(data)))
        assert elapsed > 0
        got = cluster4.driver(2).read_dma_buffer(0, len(data))
        assert np.array_equal(got, data)

    def test_put_dma_invalid_length(self, comm4):
        with pytest.raises(DMAError):
            comm4.put_dma_descriptors(0, 0, comm4.host_global(1, 0), 0)

    def test_put_dma_pipelined_requires_flag(self, comm4, cluster4):
        def run():
            yield cluster4.engine.process(
                comm4.put_dma_pipelined(0, 0x1000,
                                        comm4.host_global(1, 0), 64))

        with pytest.raises(DMAError, match="pipelined"):
            cluster4.engine.run_process(run())

    def test_put_dma_pipelined_moves_data(self, comm4, cluster4):
        cluster4.board(0).chip.dma.pipelined = True
        engine = cluster4.engine
        data = np.random.default_rng(1).integers(0, 256, 8192, dtype=np.uint8)
        src = cluster4.driver(0).dma_buffer(0)
        cluster4.node(0).dram.cpu_write(src, data)
        dst = comm4.host_global(1, cluster4.driver(1).dma_buffer(0))
        engine.run_process(comm4.put_dma_pipelined(0, src, dst, len(data)))
        assert np.array_equal(cluster4.driver(1).read_dma_buffer(0, 8192),
                              data)

    def test_gpu_to_gpu_memcpy_peer(self, comm4, cluster4):
        engine = cluster4.engine
        src = cluster4.cuda[0].cu_mem_alloc(0, 16384)
        dst = cluster4.cuda[3].cu_mem_alloc(1, 16384)
        data = np.random.default_rng(2).integers(0, 256, 16384,
                                                 dtype=np.uint8)
        cluster4.cuda[0].upload(src, data)
        engine.run_process(comm4.tca_memcpy_peer(3, dst, 0, src, 16384))
        assert np.array_equal(cluster4.cuda[3].download(dst, 16384), data)

    def test_memcpy_peer_rejects_a_gpu_of_another_node(self, comm4,
                                                        cluster4):
        src = cluster4.cuda[1].cu_mem_alloc(0, 4096)  # node 1's GPU 0
        dst = cluster4.cuda[3].cu_mem_alloc(1, 4096)
        with pytest.raises(ConfigError, match="not a GPU of node 0"):
            cluster4.engine.run_process(
                comm4.tca_memcpy_peer(3, dst, 0, src, 4096))

    def test_unpinned_gpu_destination_rejected(self, comm4, cluster4):
        """Writing to a GPU block whose pages were never pinned must fail
        like real GPUDirect."""
        engine = cluster4.engine
        dst = comm4.gpu_global(1, 0, 0)  # nothing pinned there
        src = cluster4.driver(0).dma_buffer(0)
        with pytest.raises(DriverError, match="unpinned"):
            engine.run_process(comm4.put_dma(0, src, dst, 256))


class TestBlockStride:
    def test_descriptors_shape(self, comm4):
        chain = comm4.block_stride_descriptors(
            0, 0x1000, comm4.host_global(1, 0), block_bytes=64,
            src_stride=256, dst_stride=512, count=4)
        assert len(chain) == 8
        reads = chain[0::2]
        writes = chain[1::2]
        assert [d.src for d in reads] == [0x1000 + i * 256 for i in range(4)]
        dst0 = comm4.host_global(1, 0)
        assert [d.dst for d in writes] == [dst0 + i * 512 for i in range(4)]

    def test_strided_transfer_end_to_end(self, comm4, cluster4):
        engine = cluster4.engine
        rows, row_bytes, pitch = 8, 32, 128
        rng = np.random.default_rng(3)
        src_img = rng.integers(0, 256, rows * pitch, dtype=np.uint8)
        src = cluster4.driver(0).dma_buffer(0)
        cluster4.node(0).dram.cpu_write(src, src_img)
        dst_off = cluster4.driver(1).dma_buffer(0)
        dst = comm4.host_global(1, dst_off)
        engine.run_process(comm4.put_block_stride(
            0, src, dst, block_bytes=row_bytes, src_stride=pitch,
            dst_stride=row_bytes, count=rows))
        got = cluster4.driver(1).read_dma_buffer(0, rows * row_bytes)
        expect = np.concatenate([src_img[i * pitch:i * pitch + row_bytes]
                                 for i in range(rows)])
        assert np.array_equal(got, expect)

    def test_block_too_large(self, comm4):
        with pytest.raises(DMAError):
            comm4.block_stride_descriptors(0, 0, comm4.host_global(1, 0),
                                           STAGING_BYTES + 1, 0, 0, 1)
