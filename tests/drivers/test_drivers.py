"""Unit tests for the PEACH2 and P2P drivers."""

import numpy as np
import pytest

from repro.cuda.pointer import CU_POINTER_ATTRIBUTE_P2P_TOKENS, P2PToken
from repro.cuda.runtime import CudaContext
from repro.drivers.p2p_driver import P2PDriver
from repro.drivers.peach2_driver import PEACH2Driver
from repro.errors import DriverError
from repro.hw.node import ComputeNode, NodeParams
from repro.peach2.board import PEACH2Board
from repro.peach2.descriptor import DMADescriptor


@pytest.fixture
def rig(peach2_node):
    node, board = peach2_node
    return node, board, PEACH2Driver(node, board)


class TestPEACH2Driver:
    def test_binding_validated(self, engine):
        node_a = ComputeNode(engine, "a", NodeParams(num_gpus=1))
        board = PEACH2Board(engine, "b")
        node_a.install_adapter(board)
        node_a.enumerate()
        node_b = ComputeNode(engine, "c", NodeParams(num_gpus=1))
        node_b.enumerate()
        with pytest.raises(DriverError):
            PEACH2Driver(node_b, board)

    def test_dma_buffer_bounds(self, rig):
        _, _, driver = rig
        driver.dma_buffer(0)
        with pytest.raises(DriverError):
            driver.dma_buffer(driver.usable_dma_bytes)

    def test_fill_and_read(self, rig, rng):
        _, _, driver = rig
        data = rng.integers(0, 256, 512, dtype=np.uint8)
        driver.fill_dma_buffer(100, data)
        assert np.array_equal(driver.read_dma_buffer(100, 512), data)

    def test_write_chain_programs_registers(self, rig):
        node, board, driver = rig
        chain = [DMADescriptor(board.chip.bar2.base, driver.dma_buffer(0),
                               64)]
        addr = driver.write_chain(2, chain)
        assert board.chip.regs.dma_desc_addr(2) == addr
        assert board.chip.regs.dma_desc_count(2) == 1
        # The table bytes are really in DRAM.
        raw = node.dram.cpu_read(addr, 32)
        assert raw.any()

    def test_chain_too_long_rejected(self, rig):
        node, board, driver = rig
        chain = [DMADescriptor(board.chip.bar2.base, driver.dma_buffer(0), 8)
                 for _ in range(256)]
        with pytest.raises(DriverError, match="255"):
            driver.write_chain(0, chain)

    def test_run_chain_returns_tsc_delta(self, rig):
        node, board, driver = rig
        board.chip.internal.write(0, np.zeros(128, dtype=np.uint8))
        chain = [DMADescriptor(board.chip.bar2.base, driver.dma_buffer(0),
                               128)]
        elapsed = node.engine.run_process(driver.run_chain(0, chain))
        assert elapsed == node.engine.now_ps  # started at t=0

    def test_reliable_chain_cancels_losing_timeout_timer(self, rig):
        # Regression: the retry-timeout timer lost the first_of race to
        # the completion IRQ but stayed in the heap, so the next drain
        # ran the clock all the way out to the 1 ms timeout expiry.
        from repro.drivers.peach2_driver import RetryPolicy

        node, board, driver = rig
        board.chip.internal.write(0, np.zeros(128, dtype=np.uint8))
        chain = [DMADescriptor(board.chip.bar2.base, driver.dma_buffer(0),
                               128)]
        policy = RetryPolicy(completion_timeout_ps=1_000_000_000)
        elapsed = node.engine.run_process(
            driver.run_chain_reliable(0, chain, policy))
        done_ps = node.engine.now_ps
        assert elapsed == done_ps
        node.engine.run()  # drain: the stale timer used to fire here
        assert node.engine.now_ps == done_ps
        assert done_ps < policy.completion_timeout_ps

    def test_double_doorbell_rejected(self, rig):
        node, board, driver = rig
        board.chip.internal.write(0, np.zeros(64, dtype=np.uint8))
        driver.write_chain(0, [DMADescriptor(board.chip.bar2.base,
                                             driver.dma_buffer(0), 64)])
        driver.ring_doorbell(0)
        with pytest.raises(DriverError, match="pending"):
            driver.ring_doorbell(0)
        node.engine.run()

    def test_msi_registers_configured(self, rig):
        from repro.hw.cpu import MSI_REGION
        from repro.peach2.registers import REG_MSI_ADDRESS

        _, board, _ = rig
        assert board.chip.regs.peek_u64(REG_MSI_ADDRESS) == MSI_REGION.base

    def test_poll_dma_buffer(self, rig):
        node, _, driver = rig
        engine = node.engine
        engine.after(5000, driver.fill_dma_buffer, 64,
                     np.frombuffer((0x1234).to_bytes(4, "little"),
                                   dtype=np.uint8).copy())
        tsc = engine.run_process(driver.poll_dma_buffer_u32(64, 0x1234))
        assert tsc >= 5000


class TestP2PDriver:
    def test_pin_with_valid_token(self, node):
        cuda = CudaContext(node)
        p2p = P2PDriver()
        ptr = cuda.cu_mem_alloc(0, 8192)
        token = cuda.cu_pointer_get_attribute(
            CU_POINTER_ATTRIBUTE_P2P_TOKENS, ptr)
        mapping = p2p.pin(ptr.gpu, token, ptr.offset, 8192)
        assert mapping.bus_address == ptr.gpu.offset_to_bar(ptr.offset)
        assert ptr.gpu.is_pinned(ptr.offset, 8192)

    def test_pin_without_token_rejected(self, node):
        p2p = P2PDriver()
        with pytest.raises(DriverError, match="P2P_TOKENS"):
            p2p.pin(node.gpus[0], "not-a-token", 0, 4096)

    def test_token_gpu_mismatch_rejected(self, node):
        p2p = P2PDriver()
        token = P2PToken("someone-else", 0, 4096)
        with pytest.raises(DriverError, match="token is for"):
            p2p.pin(node.gpus[0], token, 0, 4096)

    def test_token_range_check(self, node):
        cuda = CudaContext(node)
        p2p = P2PDriver()
        ptr = cuda.cu_mem_alloc(0, 4096)
        token = cuda.cu_pointer_get_attribute(
            CU_POINTER_ATTRIBUTE_P2P_TOKENS, ptr)
        with pytest.raises(DriverError, match="cover"):
            p2p.pin(ptr.gpu, token, ptr.offset, 8192)

