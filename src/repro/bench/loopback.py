"""The Fig. 10 loopback rig: two PEACH2 boards in a single node.

"In order to strictly measure the latency among the PEACH2 chip, two
PEACH2 boards are attached to a single node" (§IV-B1); board A's E port is
cabled to board B's W port.  Both chips are programmed with the *same*
TCA base (board A's window) so a store into board A's window at node 1's
region relays A -> cable -> B, and B's port N delivers it into host memory
— where the driver polls.
"""

from __future__ import annotations

from typing import Optional

from repro.drivers.peach2_driver import PEACH2Driver
from repro.hw.node import ComputeNode, NodeParams
from repro.peach2.board import PEACH2Board
from repro.peach2.chip import PEACH2Params
from repro.peach2.registers import (BLOCK_HOST, PortCode, RouteEntry)
from repro.sim.core import Engine
from repro.tca.address_map import TCAAddressMap


class LoopbackRig:
    """Single node, two boards, one external cable (Fig. 10)."""

    def __init__(self, engine: Optional[Engine] = None,
                 node_params: NodeParams = NodeParams(num_gpus=1),
                 peach2_params: PEACH2Params = PEACH2Params()):
        self.engine = engine or Engine()
        self.node = ComputeNode(self.engine, "loopback", node_params)
        self.board_a = PEACH2Board(self.engine, "peach2A", peach2_params)
        self.board_b = PEACH2Board(self.engine, "peach2B", peach2_params)
        self.node.install_adapter(self.board_a)
        self.node.install_adapter(self.board_b)
        self.node.enumerate()
        self.board_a.cable_east_to(self.board_b)

        # One shared map anchored at board A's window (board B's own BAR4
        # is unused in this configuration).
        self.address_map = TCAAddressMap(self.board_a.chip.bar4.base)
        node0 = self.address_map.node_region(0)
        node1 = self.address_map.node_region(1)
        mask = self.address_map.node_mask()

        regs_a = self.board_a.chip.regs
        regs_a.set_identity(0, self.address_map.base)
        regs_a.set_route(0, RouteEntry(mask, node0.base, node0.base, PortCode.N))
        regs_a.set_route(1, RouteEntry(mask, node1.base, node1.base, PortCode.E))
        regs_a.set_block_base(BLOCK_HOST, 0)

        regs_b = self.board_b.chip.regs
        regs_b.set_identity(1, self.address_map.base)
        regs_b.set_route(0, RouteEntry(mask, node1.base, node1.base, PortCode.N))
        regs_b.set_route(1, RouteEntry(mask, node0.base, node0.base, PortCode.W))
        regs_b.set_block_base(BLOCK_HOST, 0)

        self.driver_a = PEACH2Driver(self.node, self.board_a)

    def pio_store_latency(self, flag_value: int = 0xDEAD_BEE5) -> dict:
        """Run the §IV-B1 measurement as the polling driver sees it.

        Returns ``{"polled_ns": ...}``: store issue to the driver's poll
        loop observing the word.  That adds poll-loop granularity to
        the store-to-commit latency the paper quotes as 782 ns, which
        :meth:`pio_commit_latency_ns` measures.
        """
        driver = self.driver_a
        offset = 0x100
        target = self.address_map.global_address(
            1, BLOCK_HOST, driver.dma_buffer(offset))

        def measurement():
            start = self.node.cpu.read_tsc()
            self.node.cpu.store_u32(target, flag_value)
            observed_tsc = yield self.engine.process(
                driver.poll_dma_buffer_u32(offset, flag_value),
                name="poll")
            return {"polled_ns": (observed_tsc - start) / 1000.0}

        return self.engine.run_process(measurement(), name="pio-latency")

    def pio_commit_latency_ns(self, flag_value: int = 0x5151_0001) -> float:
        """Store-to-commit one-way latency, measured without poll noise.

        Uses a zero-interval observation process instead of the driver's
        spin loop, isolating the hardware path the paper's 782 ns
        describes.
        """
        driver = self.driver_a
        offset = 0x200
        target = self.address_map.global_address(
            1, BLOCK_HOST, driver.dma_buffer(offset))
        dram = self.node.dram
        address = driver.dma_buffer(offset)

        start = self.engine.now_ps
        self.node.cpu.store_u32(target, flag_value)

        def until_visible():
            while True:
                word = dram.cpu_read(address, 4)
                if int.from_bytes(word.tobytes(), "little") == flag_value:
                    return self.engine.now_ps
                yield 100  # 0.1 ns resolution: effectively pure path latency

        end = self.engine.run_process(until_visible(), name="observe")
        return (end - start) / 1000.0
