"""Measurement rigs shared by the figure experiments.

:class:`SingleNodeRig` is the §IV-A setup — one node, one PEACH2 board,
DMA between the chip and local CPU/GPU memory, timed from the doorbell
store to the completion-interrupt handler (the paper's TSC methodology).
:class:`TwoNodeRig` is the §IV-B2 / Fig. 11 setup — remote DMA writes from
PEACH2 on node A to memory on adjacent node B.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.cuda.runtime import CudaContext
from repro.cuda.pointer import CU_POINTER_ATTRIBUTE_P2P_TOKENS
from repro.drivers.p2p_driver import P2PDriver
from repro.drivers.peach2_driver import PEACH2Driver
from repro.errors import ConfigError
from repro.hw.node import ComputeNode, NodeParams
from repro.peach2.board import PEACH2Board
from repro.peach2.chip import PEACH2Params
from repro.peach2.descriptor import DMADescriptor
from repro.sim.core import Engine
from repro.tca.comm import TCAComm
from repro.tca.subcluster import TCASubCluster
from repro.units import KiB, MiB, bw_gbytes_per_s

#: The paper's burst count: "255 DMA writes and DMA reads" (§IV-A1).
PAPER_BURST = 255

#: Default Fig. 7/8 sweep (paper peaks at 4 KB; we extend to one side to
#: show the knee Fig. 8 describes at 8 KB and beyond).
DEFAULT_SIZES = (64, 128, 256, 512, 1 * KiB, 2 * KiB, 4 * KiB,
                 8 * KiB, 16 * KiB, 32 * KiB)


class SingleNodeRig:
    """One node + one PEACH2 board: the §IV-A DMA measurement bench."""

    def __init__(self, engine: Optional[Engine] = None,
                 node_params: NodeParams = NodeParams(num_gpus=2),
                 peach2_params: PEACH2Params = PEACH2Params()):
        self.engine = engine or Engine()
        self.node = ComputeNode(self.engine, "bench", node_params)
        self.board = PEACH2Board(self.engine, "peach2", peach2_params)
        self.node.install_adapter(self.board)
        self.node.enumerate()
        self.driver = PEACH2Driver(self.node, self.board)
        self.cuda = CudaContext(self.node)
        self.p2p = P2PDriver()
        self._gpu_buffers = {}

    # -- target addresses ----------------------------------------------------------

    def cpu_target(self, offset: int = 0) -> int:
        """Bus address inside the driver's DMA buffer."""
        return self.driver.dma_buffer(offset)

    def gpu_target(self, gpu_index: int = 0, nbytes: int = 12 * MiB) -> int:
        """Bus address of a pinned GPU-memory buffer (GPUDirect RDMA)."""
        key = (gpu_index, nbytes)
        if key not in self._gpu_buffers:
            ptr = self.cuda.cu_mem_alloc(gpu_index, nbytes)
            token = self.cuda.cu_pointer_get_attribute(
                CU_POINTER_ATTRIBUTE_P2P_TOKENS, ptr)
            mapping = self.p2p.pin(ptr.gpu, token, ptr.offset, nbytes)
            self._gpu_buffers[key] = mapping.bus_address
        return self._gpu_buffers[key]

    def internal_src(self, offset: int = 0) -> int:
        """Bus address inside PEACH2 internal memory (DMA-write source)."""
        return self.board.chip.bar2.base + offset

    # -- chain builders --------------------------------------------------------------

    def write_chain(self, size: int, count: int, target: int,
                    spread: bool = True) -> List[DMADescriptor]:
        """``count`` DMA writes of ``size`` bytes: internal -> target."""
        return [DMADescriptor(self.internal_src((i * size) if spread else 0),
                              target + i * size, size)
                for i in range(count)]

    def read_chain(self, size: int, count: int, target: int,
                   spread: bool = True) -> List[DMADescriptor]:
        """``count`` DMA reads of ``size`` bytes: target -> internal."""
        return [DMADescriptor(target + i * size,
                              self.internal_src((i * size) if spread else 0),
                              size)
                for i in range(count)]

    # -- measurement -------------------------------------------------------------------

    def measure_chain(self, chain: Sequence[DMADescriptor],
                      channel: int = 0) -> Tuple[int, float]:
        """Run one chain; returns (elapsed_ps, bandwidth GB/s)."""
        total = sum(d.length for d in chain)
        elapsed = self.engine.run_process(
            self.driver.run_chain(channel, list(chain)), name="measure")
        return elapsed, bw_gbytes_per_s(total, elapsed)

    def measure(self, op: str, target_kind: str, size: int,
                count: int = PAPER_BURST) -> Tuple[int, float]:
        """One (op, target, size, burst) cell of Figs. 7-9.

        ``op`` is ``write`` or ``read`` (from PEACH2's viewpoint, §IV-A);
        ``target_kind`` is ``cpu`` or ``gpu``.
        """
        if count * size > 12 * MiB:
            raise ConfigError("burst does not fit the measurement buffers")
        if target_kind == "cpu":
            target = self.cpu_target()
        elif target_kind == "gpu":
            target = self.gpu_target()
        else:
            raise ConfigError(f"unknown target {target_kind!r}")
        if op == "write":
            chain = self.write_chain(size, count, target)
        elif op == "read":
            chain = self.read_chain(size, count, target)
        else:
            raise ConfigError(f"unknown op {op!r}")
        return self.measure_chain(chain)


class TwoNodeRig:
    """Two adjacent TCA nodes: the Fig. 11 remote-DMA bench."""

    def __init__(self, engine: Optional[Engine] = None):
        self.cluster = TCASubCluster(2, engine=engine,
                                     node_params=NodeParams(num_gpus=2))
        self.engine = self.cluster.engine
        self.comm = TCAComm(self.cluster)
        # Keyed on nbytes: a cached buffer pinned for a smaller request
        # must not be handed out for a larger one.
        self._gpu_global = {}

    def remote_cpu_target(self, offset: int = 0) -> int:
        """TCA-global address of node 1's DMA buffer."""
        return self.comm.host_global(
            1, self.cluster.driver(1).dma_buffer(offset))

    def remote_gpu_target(self, nbytes: int = 12 * MiB) -> int:
        """TCA-global address of a pinned GPU buffer on node 1."""
        if nbytes not in self._gpu_global:
            ptr = self.cluster.cuda[1].cu_mem_alloc(0, nbytes)
            self._gpu_global[nbytes] = self.comm.register_gpu_memory(1, ptr)
        return self._gpu_global[nbytes]

    def internal_src(self, offset: int = 0) -> int:
        """Node 0's PEACH2 internal memory (remote DMA-write source)."""
        return self.cluster.board(0).chip.bar2.base + offset

    def measure_remote_write(self, size: int, target_kind: str,
                             count: int = PAPER_BURST) -> Tuple[int, float]:
        """255 chained remote DMA writes to node 1 (Fig. 12)."""
        if target_kind == "cpu":
            target = self.remote_cpu_target()
        elif target_kind == "gpu":
            target = self.remote_gpu_target()
        else:
            raise ConfigError(f"unknown target {target_kind!r}")
        chain = [DMADescriptor(self.internal_src(i * size),
                               target + i * size, size)
                 for i in range(count)]
        total = size * count
        elapsed = self.engine.run_process(
            self.cluster.driver(0).run_chain(0, chain), name="remote")
        return elapsed, bw_gbytes_per_s(total, elapsed)
