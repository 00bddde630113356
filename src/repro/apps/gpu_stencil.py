"""Distributed GPU Jacobi: kernels on GPUs, halos over TCA GPU-to-GPU puts.

This is the workload shape the paper's target applications motivate
(§II: particle physics / astrophysics stencil and field codes): the grid
lives in *GPU memory*, each iteration runs a roofline-timed kernel, and
the boundary rows move directly between GPUs on neighbouring nodes via
the TCA put path — no host staging, which is the entire point of the
architecture.

Decomposition is by rows, so halos are contiguous in device memory and a
single two-phase DMA put per neighbour moves them.  Flags synchronize
iterations (FlagPool, PCIe-ordered behind the data).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.cuda.pointer import DevicePtr
from repro.errors import ConfigError
from repro.tca.comm import TCAComm
from repro.tca.notify import FlagPool
from repro.tca.subcluster import TCASubCluster

#: Stencil cost per cell: 4 adds + 1 multiply; 5 reads + 1 write of f64.
FLOPS_PER_CELL = 5
BYTES_PER_CELL = 6 * 8


@dataclass
class GPUStencilStats:
    """Per-run timing split."""

    iterations: int
    total_ns: float
    exchange_ns: float
    kernel_ns: float


class GPUStencil:
    """Row-decomposed 2-D Jacobi on one GPU per node."""

    def __init__(self, cluster: TCASubCluster, rows_per_node: int = 32,
                 cols: int = 64, gpu_index: int = 0):
        if rows_per_node < 1 or cols < 3:
            raise ConfigError("grid too small")
        self.cluster = cluster
        self.comm = TCAComm(cluster)
        self.flags = FlagPool(cluster, self.comm, num_flags=4)
        self.engine = cluster.engine
        self.rows = rows_per_node
        self.cols = cols
        self.gpu_index = gpu_index
        self.pitch = cols * 8
        # Local layout: [ghost-top | rows interior | ghost-bottom].
        self.grid_bytes = (rows_per_node + 2) * self.pitch
        self.ptrs: List[DevicePtr] = []
        self.globals: List[int] = []
        for node_id in range(cluster.num_nodes):
            ptr = cluster.cuda[node_id].cu_mem_alloc(gpu_index,
                                                     self.grid_bytes)
            grid = np.zeros((rows_per_node + 2, cols))
            if node_id == 0:
                grid[1, :] = 100.0  # hot top edge of the global domain
            cluster.cuda[node_id].upload(
                ptr, np.ascontiguousarray(grid).view(np.uint8).reshape(-1))
            self.ptrs.append(ptr)
            self.globals.append(self.comm.register_gpu_memory(node_id, ptr))

    # -- device-memory views --------------------------------------------------------

    def read_grid(self, node_id: int) -> np.ndarray:
        """Device grid of one node, ghosts included."""
        raw = self.cluster.cuda[node_id].download(self.ptrs[node_id],
                                                  self.grid_bytes)
        return raw.view(np.float64).reshape(self.rows + 2, self.cols).copy()

    def _write_grid(self, node_id: int, grid: np.ndarray) -> None:
        self.cluster.cuda[node_id].upload(
            self.ptrs[node_id],
            np.ascontiguousarray(grid).view(np.uint8).reshape(-1))

    def _row_global(self, node_id: int, row: int) -> int:
        return self.globals[node_id] + row * self.pitch

    def _row_local_bus(self, node_id: int, row: int) -> int:
        ptr = self.ptrs[node_id]
        return ptr.gpu.offset_to_bar(ptr.offset + row * self.pitch)

    # -- one node's iteration ----------------------------------------------------------

    def _exchange(self, rank: int, sequence: int):
        n = self.cluster.num_nodes
        # Send my last interior row down into (rank+1)'s top ghost, and my
        # first interior row up into (rank-1)'s bottom ghost.  The chain
        # does not wrap: the global top/bottom are fixed boundaries.
        if rank + 1 < n:
            yield self.engine.process(self.comm.put_dma(
                rank, self._row_local_bus(rank, self.rows),
                self._row_global(rank + 1, 0), self.pitch))
            self.flags.signal(rank, rank + 1, flag=0)
        if rank - 1 >= 0:
            yield self.engine.process(self.comm.put_dma(
                rank, self._row_local_bus(rank, 1),
                self._row_global(rank - 1, self.rows + 1), self.pitch,
                channel=1))
            self.flags.signal(rank, rank - 1, flag=1)
        if rank - 1 >= 0:
            yield self.engine.process(self.flags.wait(rank, 0, sequence))
        if rank + 1 < n:
            yield self.engine.process(self.flags.wait(rank, 1, sequence))

    def _kernel(self, rank: int):
        gpu = self.ptrs[rank].gpu
        cells = self.rows * (self.cols - 2)

        def body(node_id: int = rank) -> None:
            grid = self.read_grid(node_id)
            new = grid.copy()
            new[1:-1, 1:-1] = 0.25 * (grid[:-2, 1:-1] + grid[2:, 1:-1]
                                      + grid[1:-1, :-2] + grid[1:-1, 2:])
            if node_id == 0:
                new[1, :] = 100.0
            self._write_grid(node_id, new)

        yield self.engine.process(gpu.launch_kernel(
            FLOPS_PER_CELL * cells, BYTES_PER_CELL * cells, body))

    # -- driver ---------------------------------------------------------------------------

    def run(self, iterations: int = 4) -> GPUStencilStats:
        """Run Jacobi iterations across all nodes; returns timing stats."""
        engine = self.engine
        n = self.cluster.num_nodes
        start = engine.now_ps
        exchange_ps = [0]
        kernel_ps = [0]

        def worker(rank: int):
            for it in range(1, iterations + 1):
                t0 = engine.now_ps
                yield engine.process(self._exchange(rank, it))
                if rank == 0:
                    exchange_ps[0] += engine.now_ps - t0
                t1 = engine.now_ps
                yield engine.process(self._kernel(rank))
                if rank == 0:
                    kernel_ps[0] += engine.now_ps - t1

        engine.run_all([engine.process(worker(r), name=f"gpuj{r}")
                        for r in range(n)], "GPU stencil")
        return GPUStencilStats(iterations, (engine.now_ps - start) / 1e3,
                               exchange_ps[0] / 1e3, kernel_ps[0] / 1e3)

    def global_interior(self) -> np.ndarray:
        """The glued global grid (interiors only, top to bottom)."""
        return np.vstack([self.read_grid(r)[1:-1, :]
                          for r in range(self.cluster.num_nodes)])


class DualGPUStencil:
    """Jacobi on *two GPUs per node*: the §I communication model complete.

    Strips are ordered node0.gpu0, node0.gpu1, node1.gpu0, ...; a halo
    between the two GPUs of one node moves by ``cudaMemcpyPeer`` over the
    node's PCIe switch (GPUDirect P2P), while a halo crossing nodes moves
    by a TCA put — "as if an accelerator in a different node existed in
    the same node" (§I), with the same one-sided style either way.
    """

    def __init__(self, cluster: TCASubCluster, rows_per_gpu: int = 16,
                 cols: int = 64):
        for node in cluster.nodes:
            if len(node.gpus) < 2:
                raise ConfigError("DualGPUStencil needs two GPUs per node")
        if rows_per_gpu < 1 or cols < 3:
            raise ConfigError("grid too small")
        self.cluster = cluster
        self.comm = TCAComm(cluster)
        self.flags = FlagPool(cluster, self.comm, num_flags=4)
        self.engine = cluster.engine
        self.rows = rows_per_gpu
        self.cols = cols
        self.pitch = cols * 8
        self.grid_bytes = (rows_per_gpu + 2) * self.pitch
        n = cluster.num_nodes
        self.ptrs: List[DevicePtr] = []
        self.globals: List[int] = []
        for strip in range(2 * n):
            node_id, gpu_index = divmod(strip, 2)
            ptr = cluster.cuda[node_id].cu_mem_alloc(gpu_index,
                                                     self.grid_bytes)
            grid = np.zeros((rows_per_gpu + 2, cols))
            if strip == 0:
                grid[1, :] = 100.0
            cluster.cuda[node_id].upload(
                ptr, np.ascontiguousarray(grid).view(np.uint8).reshape(-1))
            self.ptrs.append(ptr)
            self.globals.append(self.comm.register_gpu_memory(node_id, ptr))
        self.intra_node_copies = 0
        self.inter_node_puts = 0

    # -- views --------------------------------------------------------------------

    def read_strip(self, strip: int) -> np.ndarray:
        """One strip's grid, ghosts included."""
        node_id = strip // 2
        raw = self.cluster.cuda[node_id].download(self.ptrs[strip],
                                                  self.grid_bytes)
        return raw.view(np.float64).reshape(self.rows + 2, self.cols).copy()

    def _write_strip(self, strip: int, grid: np.ndarray) -> None:
        self.cluster.cuda[strip // 2].upload(
            self.ptrs[strip],
            np.ascontiguousarray(grid).view(np.uint8).reshape(-1))

    def global_interior(self) -> np.ndarray:
        """The glued global grid (interiors only)."""
        return np.vstack([self.read_strip(s)[1:-1, :]
                          for s in range(2 * self.cluster.num_nodes)])

    # -- one node's iteration ------------------------------------------------------

    def _worker(self, node_id: int, iterations: int):
        cluster, comm, engine = self.cluster, self.comm, self.engine
        n = cluster.num_nodes
        top = 2 * node_id       # this node's gpu0 strip
        bottom = top + 1        # this node's gpu1 strip
        cuda = cluster.cuda[node_id]

        for it in range(1, iterations + 1):
            # Inter-node edges first (they overlap the intra-node copies).
            if node_id + 1 < n:
                self.inter_node_puts += 1
                ptr = self.ptrs[bottom]
                yield engine.process(comm.put_dma(
                    node_id,
                    ptr.gpu.offset_to_bar(ptr.offset + self.rows * self.pitch),
                    self.globals[bottom + 1], self.pitch))
                self.flags.signal(node_id, node_id + 1, flag=0)
            if node_id - 1 >= 0:
                self.inter_node_puts += 1
                ptr = self.ptrs[top]
                yield engine.process(comm.put_dma(
                    node_id,
                    ptr.gpu.offset_to_bar(ptr.offset + 1 * self.pitch),
                    self.globals[top - 1] + (self.rows + 1) * self.pitch,
                    self.pitch, channel=1))
                self.flags.signal(node_id, node_id - 1, flag=1)

            # Intra-node edge: gpu0 <-> gpu1 by cudaMemcpyPeer (§III-H).
            self.intra_node_copies += 2
            yield engine.process(cuda.memcpy_peer(
                self.ptrs[bottom],                       # into gpu1 ghost 0
                self.ptrs[top] + self.rows * self.pitch,
                self.pitch))
            yield engine.process(cuda.memcpy_peer(
                self.ptrs[top] + (self.rows + 1) * self.pitch,
                self.ptrs[bottom] + 1 * self.pitch,
                self.pitch))

            # Wait for the inbound inter-node halos.
            if node_id - 1 >= 0:
                yield engine.process(self.flags.wait(node_id, 0, it))
            if node_id + 1 < n:
                yield engine.process(self.flags.wait(node_id, 1, it))

            # Kernels on both GPUs, concurrently.
            kernels = []
            for strip in (top, bottom):
                cells = self.rows * (self.cols - 2)

                def body(s: int = strip) -> None:
                    grid = self.read_strip(s)
                    new = grid.copy()
                    new[1:-1, 1:-1] = 0.25 * (
                        grid[:-2, 1:-1] + grid[2:, 1:-1]
                        + grid[1:-1, :-2] + grid[1:-1, 2:])
                    if s == 0:
                        new[1, :] = 100.0
                    self._write_strip(s, new)

                kernels.append(engine.process(
                    self.ptrs[strip].gpu.launch_kernel(
                        FLOPS_PER_CELL * cells, BYTES_PER_CELL * cells,
                        body)))
            for kernel in kernels:
                yield kernel

    def run(self, iterations: int = 4) -> float:
        """Run the distributed solve; returns simulated microseconds."""
        engine = self.engine
        start = engine.now_ps
        engine.run_all([engine.process(self._worker(r, iterations),
                                       name=f"dual{r}")
                        for r in range(self.cluster.num_nodes)],
                       "dual-GPU stencil")
        return (engine.now_ps - start) / 1e6
