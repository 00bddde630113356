"""Tests for the ring/dual-ring collectives."""

import numpy as np
import pytest

from repro.collectives import (TCACollectives, ring_allgather,
                               ring_allreduce, ring_barrier, ring_broadcast)
from repro.errors import ConfigError
from repro.hw.node import NodeParams
from repro.tca.subcluster import DUAL_RING, TCASubCluster


def make_cluster(n, topology="ring"):
    return TCASubCluster(n, topology=topology,
                         node_params=NodeParams(num_gpus=1))


def vectors(n, words, seed=11):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 1 << 32, words, dtype=np.uint32)
            for _ in range(n)]


class TestAllgather:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pio_sized_blocks(self, n):
        results = ring_allgather(make_cluster(n), block_bytes=512)
        assert len(results) == n
        assert all(r.size == n * 512 for r in results)

    def test_dma_sized_blocks(self):
        results = ring_allgather(make_cluster(3), block_bytes=8192)
        assert all(np.array_equal(results[0], r) for r in results)

    def test_oversized_blocks_rejected(self):
        with pytest.raises(ConfigError):
            ring_allgather(make_cluster(2), block_bytes=11 * 1024 * 1024)


class TestReduceScatter:
    """Input checks of allreduce's reduce-scatter phase, which splits
    every vector into one equal chunk per ring position."""

    def test_indivisible_vector_rejected(self):
        with pytest.raises(ConfigError):
            TCACollectives(make_cluster(3)).allreduce(vectors(3, 1000))

    def test_mismatched_lengths_rejected(self):
        vecs = vectors(2, 64)
        vecs[1] = vecs[1][:32]
        with pytest.raises(ConfigError):
            TCACollectives(make_cluster(2)).allreduce(vecs)


class TestAllreduce:
    @pytest.mark.parametrize("n", [2, 4])
    def test_flat_matches_numpy_sum(self, n):
        cluster = make_cluster(n)
        vecs = vectors(n, 512)
        results = TCACollectives(cluster).allreduce(vecs)
        total = vecs[0].copy()
        for v in vecs[1:]:
            total = total + v
        assert all(np.array_equal(r, total) for r in results)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_hierarchical_on_dual_ring(self, n):
        cluster = make_cluster(n, topology=DUAL_RING)
        vecs = vectors(n, 512)
        results = TCACollectives(cluster).allreduce(vecs)
        total = vecs[0].copy()
        for v in vecs[1:]:
            total = total + v
        assert all(np.array_equal(r, total) for r in results)

    def test_hierarchical_requires_dual_ring(self):
        with pytest.raises(ConfigError):
            TCACollectives(make_cluster(4)).allreduce(vectors(4, 512),
                                                      hierarchical=True)

    def test_dual_ring_beats_flat_ring_latency(self):
        """The hierarchical schedule (N-1 steps) beats flat 2(N-1)."""
        vecs = vectors(8, 256)  # 1 KiB: latency-dominated
        flat = make_cluster(8)
        t0 = flat.engine.now_ps
        TCACollectives(flat).allreduce(vecs)
        flat_ps = flat.engine.now_ps - t0
        dual = make_cluster(8, topology=DUAL_RING)
        t0 = dual.engine.now_ps
        TCACollectives(dual).allreduce(vecs)
        dual_ps = dual.engine.now_ps - t0
        assert flat_ps / dual_ps >= 1.5

    def test_byte_deterministic_across_runs(self):
        runs = []
        for _ in range(2):
            cluster = make_cluster(4)
            t0 = cluster.engine.now_ps
            results = ring_allreduce(cluster, nbytes=4096, seed=3)
            runs.append((cluster.engine.now_ps - t0,
                         results[0].tobytes()))
        assert runs[0] == runs[1]


class TestBroadcast:
    @pytest.mark.parametrize("n,root", [(2, 0), (5, 2), (4, 3)])
    def test_every_node_receives(self, n, root):
        results = ring_broadcast(make_cluster(n), nbytes=4096, root=root)
        assert all(np.array_equal(results[0], r) for r in results)

    def test_dual_ring_broadcast(self):
        """A dual ring broadcasts over one flat logical ring."""
        results = ring_broadcast(make_cluster(8, topology=DUAL_RING),
                                 nbytes=65536, root=5)
        assert all(np.array_equal(results[0], r) for r in results)

    def test_root_overlaps_puts_across_channels(self):
        """Bulk broadcast: the root's E and W puts coexist."""
        cluster = make_cluster(8, topology=DUAL_RING)
        coll = TCACollectives(cluster)
        rng = np.random.default_rng(5)
        coll.broadcast(rng.integers(0, 256, 65536, dtype=np.uint8), root=1)
        stats = coll.overlap_stats()[1]
        assert stats["max_inflight"] >= 2
        used = [ch for ch, count in
                stats["chains_per_channel"].items() if count]
        assert len(used) >= 2

    def test_bad_root_rejected(self):
        with pytest.raises(ConfigError):
            ring_broadcast(make_cluster(2), root=7)


class TestBarrier:
    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_barrier_completes(self, n):
        elapsed = ring_barrier(make_cluster(n))
        assert elapsed > 0

    def test_barrier_cost_grows_logarithmically(self):
        two = ring_barrier(make_cluster(2))      # 1 round
        eight = ring_barrier(make_cluster(8))    # 3 rounds
        assert two < eight < 6 * two


class TestContextReuse:
    def test_back_to_back_collectives_share_a_context(self):
        cluster = make_cluster(4)
        coll = TCACollectives(cluster)
        vecs = vectors(4, 256)
        first = coll.allreduce(vecs)
        second = coll.allreduce(vecs)
        assert np.array_equal(first[0], second[0])
        coll.barrier()

    def test_fresh_context_ignores_stale_flags(self):
        """A second context on the same cluster starts clean."""
        cluster = make_cluster(4)
        TCACollectives(cluster).allreduce(vectors(4, 256))
        results = TCACollectives(cluster).allreduce(vectors(4, 256, seed=9))
        vecs = vectors(4, 256, seed=9)
        total = vecs[0].copy()
        for v in vecs[1:]:
            total = total + v
        assert np.array_equal(results[0], total)
