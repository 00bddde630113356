"""2-D Jacobi halo exchange using chained block-stride DMA (§III-H).

The global grid is split into vertical strips, one per node.  Each
iteration exchanges boundary *columns* with the ring neighbours — a
strided access pattern ("the stride access caused by multidimensional
array data", §III-B) that maps onto one chained block-stride DMA instead
of row-count separate transfers.  Grid rows live in the nodes' DMA
buffers so the exchange is real simulated traffic; the stencil update
itself is plain numpy plus a modelled compute delay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.tca.comm import TCAComm
from repro.tca.subcluster import TCASubCluster


@dataclass
class HaloStats:
    """Timing breakdown of one run."""

    iterations: int
    total_ns: float
    exchange_ns: float


class HaloExchange2D:
    """A 1-D (column-strip) decomposed 2-D Jacobi solver on the ring."""

    def __init__(self, cluster: TCASubCluster, rows: int = 64,
                 cols_per_node: int = 32,
                 compute_ps_per_cell: int = 50):
        if rows < 2 or cols_per_node < 2:
            raise ConfigError("grid too small")
        self.cluster = cluster
        self.comm = TCAComm(cluster)
        self.engine = cluster.engine
        self.rows = rows
        self.cols = cols_per_node
        self.compute_ps_per_cell = compute_ps_per_cell
        # Local layout per node, float64 row-major, with one ghost column
        # on each side:  [ghostL | interior cols | ghostR].
        self.pitch = (self.cols + 2) * 8
        self.grid_bytes = self.rows * self.pitch
        self.flag_base = self.grid_bytes + 0x1000
        self._iter = 0
        for rank in range(cluster.num_nodes):
            grid = self._initial_grid(rank)
            cluster.driver(rank).fill_dma_buffer(
                0, grid.view(np.uint8).reshape(-1))

    def _initial_grid(self, rank: int) -> np.ndarray:
        grid = np.zeros((self.rows, self.cols + 2), dtype=np.float64)
        # Dirichlet boundary: hot left edge of the global domain.
        if rank == 0:
            grid[:, 1] = 100.0
        return grid

    # -- grid access over the DMA buffer -------------------------------------------

    def read_grid(self, rank: int) -> np.ndarray:
        """Current grid of one node (rows x cols+2 float64)."""
        raw = self.cluster.driver(rank).read_dma_buffer(0, self.grid_bytes)
        return raw.view(np.float64).reshape(self.rows, self.cols + 2).copy()

    def _write_grid(self, rank: int, grid: np.ndarray) -> None:
        self.cluster.driver(rank).fill_dma_buffer(
            0, np.ascontiguousarray(grid).view(np.uint8).reshape(-1))

    def _column_offset(self, col_index: int) -> int:
        """Byte offset of row 0 of a column within the grid buffer."""
        return col_index * 8

    # -- the exchange -----------------------------------------------------------------

    def _exchange(self, rank: int, step_flag: int):
        """One node's halo exchange for one iteration (a process)."""
        cluster, comm = self.cluster, self.comm
        n = cluster.num_nodes
        driver = cluster.driver(rank)
        right = (rank + 1) % n
        left = (rank - 1) % n
        # Send my rightmost interior column into right's left ghost, and
        # my leftmost interior column into left's right ghost — each one
        # chained block-stride DMA: `rows` blocks of 8 bytes, stride pitch.
        # Flag slot 0 on the receiver means "left ghost filled" (data from
        # its West neighbour), slot 1 means "right ghost filled"; keyed by
        # the edge, not the peer id, so a 2-node ring (right == left)
        # still uses distinct flags.
        sends = (
            (right, self._column_offset(self.cols),      # my right edge
             self._column_offset(0), 0),                 # their left ghost
            (left, self._column_offset(1),               # my left edge
             self._column_offset(self.cols + 1), 1),     # their right ghost
        )
        for peer, src_col, dst_col, flag_slot in sends:
            src_local = driver.dma_buffer(src_col)
            dst_global = comm.host_global(
                peer, cluster.driver(peer).dma_buffer(dst_col))
            yield self.engine.process(comm.put_block_stride(
                rank, src_local, dst_global, block_bytes=8,
                src_stride=self.pitch, dst_stride=self.pitch,
                count=self.rows), name=f"halo{rank}")
            flag_global = comm.host_global(
                peer, cluster.driver(peer).dma_buffer(
                    self.flag_base + flag_slot * 4))
            cluster.node(rank).cpu.store_u32(flag_global, step_flag)
        # Wait for both neighbours' columns.
        for slot in (0, 1):
            yield self.engine.process(driver.poll_dma_buffer_u32(
                self.flag_base + slot * 4, step_flag), name=f"wait{rank}")

    # -- the solver loop ---------------------------------------------------------------

    def run(self, iterations: int = 4) -> HaloStats:
        """Run Jacobi iterations; returns timing stats."""
        engine = self.engine
        n = self.cluster.num_nodes
        start = engine.now_ps
        exchange_ps = [0]

        def worker(rank: int):
            for it in range(1, iterations + 1):
                t0 = engine.now_ps
                yield engine.process(self._exchange(rank, self._iter + it),
                                     name=f"xch{rank}")
                if rank == 0:
                    exchange_ps[0] += engine.now_ps - t0
                grid = self.read_grid(rank)
                interior = grid[1:-1, 1:-1].copy()
                grid[1:-1, 1:-1] = 0.25 * (grid[:-2, 1:-1] + grid[2:, 1:-1]
                                           + grid[1:-1, :-2] + grid[1:-1, 2:])
                # Pin the global boundary.
                if rank == 0:
                    grid[:, 1] = 100.0
                self._write_grid(rank, grid)
                yield self.compute_ps_per_cell * interior.size

        engine.run_all([engine.process(worker(rank), name=f"jacobi{rank}")
                        for rank in range(n)], "halo exchange")
        self._iter += iterations
        total_ps = engine.now_ps - start
        return HaloStats(iterations, total_ps / 1000.0,
                         exchange_ps[0] / 1000.0)

    def global_heat(self) -> float:
        """Sum of interior temperatures across all nodes (for checking)."""
        return float(sum(self.read_grid(r)[:, 1:-1].sum()
                         for r in range(self.cluster.num_nodes)))
