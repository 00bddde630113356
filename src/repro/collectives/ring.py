"""TCA-native ring collectives: allgather, allreduce, broadcast,
barrier (§I, §V).

Every collective here is a *schedule of puts plus flag stores* — no
message matching, no software protocol stack.  Payloads travel as PIO
puts (short messages, §III-F1) or chained-DMA puts submitted through the
:class:`~repro.collectives.channels.ChannelScheduler` (bulk, §III-F2);
completion is a 4-byte flag store that PCIe path ordering keeps behind
the payload (§III-H).  On a :data:`~repro.tca.subcluster.DUAL_RING`
sub-cluster, allreduce goes hierarchical: each ring reduce-scatters in
parallel and the S cables carry one cross-ring exchange, cutting an
8-node allreduce from 2(N-1)=14 to N-1=7 serialized hops.

Reductions are uint32 modular sums, so results are byte-identical
regardless of arrival order.  Every public collective self-checks its
result against a NumPy reference and raises
:class:`~repro.errors.ConfigError` on mismatch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.collectives.channels import ChannelScheduler
from repro.errors import ConfigError
from repro.peach2.registers import PortCode
from repro.tca.comm import TCAComm
from repro.tca.notify import FlagPool
from repro.tca.subcluster import DUAL_RING, RING, TORUS, TCASubCluster
from repro.tca.topology import ring_neighbor

#: Staging regions are page-aligned, like the real driver's allocations.
PAGE = 4096

#: Payloads at or below this ride PIO; above, chained DMA (the E16/E18
#: crossover regime — same split the allgather mini-app always used).
PIO_THRESHOLD = 2048

# Flag-index plan (one FlagPool, 64 flags; rings hold at most 16 nodes so
# a phase needs at most 15 step flags).  Distinct phases use distinct
# flags; sequence numbers make reuse across invocations safe.  Clusters
# beyond 16 nodes (torus fabrics, 64-node flat rings) scale this plan
# per instance — see :meth:`TCACollectives._plan_flags`; up to 16 nodes
# the instance plan equals these module constants exactly.
FLAG_RS = 0        # reduce-scatter steps          0..14
FLAG_AG = 16       # allgather steps              16..30
FLAG_X = 32        # one cross-ring S exchange
FLAG_BCAST = 33    # broadcast delivery
FLAG_BARRIER = 34  # dissemination-barrier rounds 34..37


def _align(nbytes: int) -> int:
    return -(-nbytes // PAGE) * PAGE


class TCACollectives:
    """Collective context over one sub-cluster.

    Owns a :class:`~repro.tca.comm.TCAComm`, a
    :class:`~repro.tca.notify.FlagPool` and one
    :class:`ChannelScheduler` per node.  Collectives stage through each
    node's driver DMA buffer: payload slots from offset 0 up, flag words
    at the top (the pool's region).  One context may run many
    collectives back to back; running two contexts on one cluster
    concurrently is not supported (their flag regions alias).
    """

    def __init__(self, cluster: TCASubCluster,
                 pio_threshold: int = PIO_THRESHOLD):
        self.cluster = cluster
        self.engine = cluster.engine
        self.comm = TCAComm(cluster)
        num_flags = self._plan_flags(cluster.num_nodes)
        self.flags = FlagPool(cluster, self.comm, num_flags=num_flags)
        self.pio_threshold = pio_threshold
        self.schedulers = [ChannelScheduler(cluster, node_id)
                           for node_id in range(cluster.num_nodes)]
        #: Bytes of each DMA buffer available for payload + staging.
        self.data_bytes = (min(d.usable_dma_bytes for d in cluster.drivers)
                           - self.flags.region_bytes)
        # A fresh context must not inherit flag values from an earlier
        # one (its FlagPool sequences restart at 1).
        zeros = np.zeros(self.flags.region_bytes, dtype=np.uint8)
        for driver in cluster.drivers:
            driver.fill_dma_buffer(
                driver.usable_dma_bytes - self.flags.region_bytes, zeros)
        # Receiver-side expected-sequence counters, per (node, flag).
        self._expect: Dict[Tuple[int, int], int] = {}

    # -- plumbing -----------------------------------------------------------------

    def _plan_flags(self, n: int) -> int:
        """Lay out the per-instance flag banks; returns the pool size.

        Up to 16 nodes this reproduces the module-level plan (FLAG_RS=0,
        FLAG_AG=16, ...) exactly.  Larger fabrics need up to n-1 step
        flags per phase bank, so the banks stretch and the FlagPool
        grows to match (the flag region is a sliver of the 16-MiB DMA
        buffer either way).
        """
        if n <= 16:
            self._flag_rs = FLAG_RS
            self._flag_ag = FLAG_AG
            self._flag_x = FLAG_X
            self._flag_bcast = FLAG_BCAST
            self._flag_barrier = FLAG_BARRIER
            return 64
        steps = n - 1
        self._flag_rs = 0
        self._flag_ag = steps
        self._flag_x = 2 * steps
        self._flag_bcast = 2 * steps + 1
        self._flag_barrier = 2 * steps + 2
        return self._flag_barrier + (n - 1).bit_length()

    def _wait(self, node: int, flag: int):
        """Process: wait for the next notification on a local flag."""
        key = (node, flag)
        self._expect[key] = self._expect.get(key, 0) + 1
        start_ps = self.engine.now_ps
        tsc = yield from self.flags.wait(node, flag, self._expect[key])
        # The flag-wait span is what the critical-path analyzer walks
        # (repro.obs.critpath); a strict no-op without a tracer.
        self.engine.trace(f"coll.n{node}", "coll-wait", flag=flag,
                          dur_ps=self.engine.now_ps - start_ps)
        return tsc

    def _put(self, src_node: int, src_offset: int, dst_node: int,
             dst_offset: int, nbytes: int):
        """Process: put DMA-buffer bytes to a peer's DMA buffer.

        Short payloads ride a paced PIO stream; bulk ones become a
        two-phase chained-DMA put submitted through the source node's
        channel scheduler, so concurrent puts from one node (e.g. a
        bidirectional broadcast, or a ring put next to an S-port
        exchange) overlap on different DMA channels.

        Returns ``(wire_ps, queue_ps, transport)``: time the payload
        spent on the wire (doorbell/stream to completion), time the
        chain waited for a free DMA channel (always 0 for PIO), and
        which transport carried it.
        """
        driver = self.cluster.driver(src_node)
        dst_global = self.comm.host_global(
            dst_node, self.cluster.driver(dst_node).dma_buffer(dst_offset))
        start_ps = self.engine.now_ps
        if nbytes <= self.pio_threshold:
            payload = driver.read_dma_buffer(src_offset, nbytes)
            elapsed = yield self.engine.process(
                self.comm.put_pio_timed(src_node, dst_global, payload),
                name=f"coll{src_node}.pio")
            return elapsed, 0, "pio"
        chain = self.comm.put_dma_descriptors(
            src_node, driver.dma_buffer(src_offset), dst_global, nbytes)
        elapsed = yield self.schedulers[src_node].submit(chain)
        # The scheduler's signal fires with doorbell-to-IRQ time, so
        # anything beyond that is channel-queue wait.
        queue_ps = (self.engine.now_ps - start_ps) - elapsed
        return elapsed, queue_ps, "dma"

    def _put_flagged(self, src_node: int, src_offset: int, dst_node: int,
                     dst_offset: int, nbytes: int, flag: int):
        """Process: put, then store the completion flag.

        For DMA the flag store happens after the chain's completion IRQ;
        for PIO it is posted right behind the payload.  Either way it
        follows the payload on the same address-routed path, so §III-H
        posted-write ordering guarantees the receiver polls it last.
        """
        start_ps = self.engine.now_ps
        wire_ps, queue_ps, transport = yield from self._put(
            src_node, src_offset, dst_node, dst_offset, nbytes)
        self.flags.signal(src_node, dst_node, flag)
        # One span per flagged put, decomposed for repro.obs.critpath.
        self.engine.trace(f"coll.n{src_node}", "coll-put", flag=flag,
                          dst=dst_node, nbytes=nbytes, transport=transport,
                          wire_ps=wire_ps, queue_ps=queue_ps,
                          dur_ps=self.engine.now_ps - start_ps)

    def _reduce_into(self, node: int, accum_offset: int,
                     staging_offset: int, nbytes: int) -> None:
        """uint32 modular sum of a staged chunk into the accumulator."""
        driver = self.cluster.driver(node)
        acc = driver.read_dma_buffer(accum_offset, nbytes).view(np.uint32)
        inc = driver.read_dma_buffer(staging_offset, nbytes).view(np.uint32)
        driver.fill_dma_buffer(accum_offset, (acc + inc).view(np.uint8))

    def _run(self, workers: Dict[int, object], name: str) -> None:
        """Spawn one process per node and step the engine to completion."""
        self.engine.run_all([self.engine.process(gen, name=f"{name}{node}")
                             for node, gen in sorted(workers.items())], name)

    def _flat_ring(self) -> List[int]:
        """Node ids in logical ring order for whole-cluster collectives.

        On a single ring this is the cable order; on a dual ring the
        same id order still works (route tables deliver any put, puts to
        the other ring just cross an S cable) — it is what broadcast and
        the flat allreduce use there.
        """
        if self.cluster.topology == RING:
            return self.cluster.rings()[0]
        return list(range(self.cluster.num_nodes))

    def overlap_stats(self) -> Dict[int, Dict[str, object]]:
        """Per-node scheduler statistics (proof DMA overlap happened)."""
        return {
            node: {
                "submitted": sched.submitted,
                "max_inflight": sched.max_inflight,
                "chains_per_channel": sched.chains_per_channel(),
            }
            for node, sched in enumerate(self.schedulers)
        }

    # -- allgather ----------------------------------------------------------------

    def allgather(self, blocks: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Ring allgather: every node ends with all N blocks, in order.

        DMA-buffer layout: N block slots from offset 0; step s puts the
        forwarded block straight into its final slot on the East
        neighbour.  N-1 steps, self-checked on every node.
        """
        n = self.cluster.num_nodes
        if len(blocks) != n:
            raise ConfigError(f"need one block per node ({n})")
        blocks = [np.ascontiguousarray(b, dtype=np.uint8) for b in blocks]
        block_bytes = blocks[0].size
        if block_bytes <= 0:
            raise ConfigError("blocks must be non-empty")
        if any(b.size != block_bytes for b in blocks):
            raise ConfigError("all blocks must be the same size")
        if n * block_bytes > self.data_bytes:
            raise ConfigError("blocks too large for the DMA buffers")

        for rank in range(n):
            self.cluster.driver(rank).fill_dma_buffer(rank * block_bytes,
                                                      blocks[rank])

        def worker(rank: int):
            east = (rank + 1) % n
            for step in range(n - 1):
                # Forward the block received last step (own block first).
                block_id = (rank - step) % n
                yield from self._put_flagged(
                    rank, block_id * block_bytes,
                    east, block_id * block_bytes,
                    block_bytes, self._flag_ag + step)
                yield from self._wait(rank, self._flag_ag + step)

        self._run({rank: worker(rank) for rank in range(n)}, "allgather")

        expect = np.concatenate(blocks)
        results = []
        for rank in range(n):
            got = self.cluster.driver(rank).read_dma_buffer(
                0, n * block_bytes)
            if not np.array_equal(got, expect):
                raise ConfigError(f"allgather mismatch on rank {rank}")
            results.append(got)
        return results

    # -- allreduce ----------------------------------------------------------------

    def _check_vectors(self, vectors: Sequence[np.ndarray],
                       num_chunks: int) -> Tuple[List[np.ndarray], int]:
        n = self.cluster.num_nodes
        if len(vectors) != n:
            raise ConfigError(f"need one vector per node ({n})")
        vectors = [np.ascontiguousarray(v, dtype=np.uint32) for v in vectors]
        words = vectors[0].size
        if words <= 0:
            raise ConfigError("vectors must be non-empty")
        if any(v.size != words for v in vectors):
            raise ConfigError("all vectors must be the same length")
        if words % num_chunks:
            raise ConfigError(
                f"vector length {words} words must divide into "
                f"{num_chunks} equal chunks")
        return vectors, words

    def allreduce(self, vectors: Sequence[np.ndarray],
                  hierarchical: Optional[bool] = None,
                  torus: Optional[bool] = None) -> List[np.ndarray]:
        """Ring allreduce (uint32 modular sum); every node gets the sum.

        Flat form: reduce-scatter then allgather over one logical ring —
        2(N-1) serialized put steps.  On a DUAL_RING cluster (the
        default there; force with ``hierarchical``) each ring
        reduce-scatters in parallel, same-column partners exchange their
        owned chunk over the S cables, then each ring allgathers:
        2(N/2-1)+1 = N-1 steps, about half the flat latency.

        On a TORUS cluster (the default there; force with ``torus``) the
        collective goes per-dimension: reduce-scatter along each
        dimension's ring in turn (regions shrinking by that dimension's
        extent), then allgather back in reverse order — 2*sum(n_d - 1)
        serialized steps instead of 2(N-1), e.g. 28 versus 126 on an
        8x8 torus.
        """
        if torus is None:
            torus = self.cluster.topology == TORUS
        elif torus and self.cluster.topology != TORUS:
            raise ConfigError("torus allreduce needs a TORUS sub-cluster")
        if hierarchical is None:
            hierarchical = (not torus
                            and self.cluster.topology == DUAL_RING)
        if hierarchical and self.cluster.topology != DUAL_RING:
            raise ConfigError("hierarchical allreduce needs a DUAL_RING "
                              "sub-cluster")
        if hierarchical and torus:
            raise ConfigError("hierarchical and torus allreduce are "
                              "mutually exclusive")
        n = self.cluster.num_nodes
        num_chunks = (n // 2) if hierarchical else n
        vectors, words = self._check_vectors(vectors, num_chunks)
        nbytes = words * 4
        chunk = nbytes // num_chunks
        staging = _align(nbytes)
        if torus:
            slots_bytes = self._torus_staging_bytes(nbytes)
        else:
            slots = num_chunks - 1 + (1 if hierarchical else 0)
            slots_bytes = max(slots, 1) * chunk
        if staging + slots_bytes > self.data_bytes:
            raise ConfigError("vectors too large for the DMA buffers")

        for rank in range(n):
            self.cluster.driver(rank).fill_dma_buffer(
                0, vectors[rank].view(np.uint8))

        if hierarchical:
            workers = self._allreduce_dual_workers(nbytes, chunk, staging)
        elif torus:
            workers = self._allreduce_torus_workers(nbytes)
        else:
            workers = {rank: self._allreduce_flat_worker(rank, chunk)
                       for rank in range(n)}
        self._run(workers, "allreduce")

        total = vectors[0].copy()
        for v in vectors[1:]:
            total = total + v
        results = []
        for rank in range(n):
            got = self.cluster.driver(rank).read_dma_buffer(
                0, nbytes).view(np.uint32)
            if not np.array_equal(got, total):
                raise ConfigError(f"allreduce mismatch on rank {rank}")
            results.append(got)
        return results

    def _allreduce_flat_worker(self, rank: int, chunk: int):
        """One rank of the flat RS+AG allreduce.

        The allgather phase writes straight into final chunk slots; that
        is race-free because rank r's AG-step-s put trails the
        receiver's last read of that slot by n-1 flag-chained put steps
        (and the self-check above would catch any violation).
        """
        n = self.cluster.num_nodes
        east = (rank + 1) % n
        staging = _align(n * chunk)
        for step in range(n - 1):
            send = (rank - step) % n
            yield from self._put_flagged(
                rank, send * chunk, east, staging + step * chunk,
                chunk, self._flag_rs + step)
            yield from self._wait(rank, self._flag_rs + step)
            self._reduce_into(rank, ((rank - step - 1) % n) * chunk,
                              staging + step * chunk, chunk)
        for step in range(n - 1):
            send = (rank + 1 - step) % n
            yield from self._put_flagged(
                rank, send * chunk, east, send * chunk,
                chunk, self._flag_ag + step)
            yield from self._wait(rank, self._flag_ag + step)

    def _allreduce_dual_workers(self, nbytes: int, chunk: int,
                                staging: int) -> Dict[int, object]:
        """Workers for the hierarchical dual-ring allreduce."""
        ring_a, ring_b = self.cluster.rings()
        half = len(ring_a)
        xslot = staging + (half - 1) * chunk

        def worker(ring: List[int], other: List[int], pos: int):
            node = ring[pos]
            partner = other[pos]
            east = ring_neighbor(ring, node, PortCode.E)
            # Phase 1: reduce-scatter inside this ring.
            for step in range(half - 1):
                send = (pos - step) % half
                yield from self._put_flagged(
                    node, send * chunk, east, staging + step * chunk,
                    chunk, self._flag_rs + step)
                yield from self._wait(node, self._flag_rs + step)
                self._reduce_into(node, ((pos - step - 1) % half) * chunk,
                                  staging + step * chunk, chunk)
            # Phase 2: both columns swap their owned chunk over S and
            # add — after this it is reduced over the whole cluster.
            owned = (pos + 1) % half
            yield from self._put_flagged(node, owned * chunk, partner,
                                         xslot, chunk, self._flag_x)
            yield from self._wait(node, self._flag_x)
            self._reduce_into(node, owned * chunk, xslot, chunk)
            # Phase 3: allgather inside this ring.
            for step in range(half - 1):
                send = (pos + 1 - step) % half
                yield from self._put_flagged(
                    node, send * chunk, east, send * chunk,
                    chunk, self._flag_ag + step)
                yield from self._wait(node, self._flag_ag + step)

        workers: Dict[int, object] = {}
        for pos in range(half):
            workers[ring_a[pos]] = worker(ring_a, ring_b, pos)
            workers[ring_b[pos]] = worker(ring_b, ring_a, pos)
        return workers

    def _torus_phases(self, nbytes: int):
        """Per-dimension (chunk, staging base, flag offset) of the torus
        allreduce: phase d splits the previous region by extent d."""
        geometry = self.cluster.geometry
        phases = []
        size, stage, flag_off = nbytes, _align(nbytes), 0
        for extent in geometry.extents:
            chunk = size // extent
            phases.append((chunk, stage, flag_off))
            stage += (extent - 1) * chunk
            flag_off += extent - 1
            size = chunk
        return phases

    def _torus_staging_bytes(self, nbytes: int) -> int:
        """Bytes of staging the torus phases need past ``_align(nbytes)``."""
        phases = self._torus_phases(nbytes)
        last_chunk, last_stage, _ = phases[-1]
        extent = self.cluster.geometry.extents[-1]
        return (last_stage + (extent - 1) * last_chunk) - _align(nbytes)

    def _allreduce_torus_workers(self, nbytes: int) -> Dict[int, object]:
        """Workers for the per-dimension torus allreduce.

        Reduce-scatter sweeps dimensions 0..D-1: each phase runs the
        flat RS schedule on the node's dimension-d ring over its current
        region, then keeps chunk (p_d + 1) mod n_d as the next region.
        Allgather sweeps back D-1..0 rebuilding each region in place.
        Every phase stages into its own slot range (disjoint across
        phases), so a fast ring can run ahead without overwriting data a
        slower neighbour has not consumed; each phase also gets its own
        flag-bank offset, so step flags never collide across phases.
        """
        geometry = self.cluster.geometry
        extents = geometry.extents
        phases = self._torus_phases(nbytes)

        def worker(node: int):
            coords = geometry.coords_of(node)
            bases: List[int] = []
            base = 0
            for dim, extent in enumerate(extents):
                chunk, stage, flag_off = phases[dim]
                pos = coords[dim]
                plus = geometry.neighbor(node, dim, 1)
                flag = self._flag_rs + flag_off
                bases.append(base)
                for step in range(extent - 1):
                    send = (pos - step) % extent
                    yield from self._put_flagged(
                        node, base + send * chunk, plus,
                        stage + step * chunk, chunk, flag + step)
                    yield from self._wait(node, flag + step)
                    self._reduce_into(
                        node, base + ((pos - step - 1) % extent) * chunk,
                        stage + step * chunk, chunk)
                base += ((pos + 1) % extent) * chunk
            for dim in reversed(range(len(extents))):
                chunk, _, flag_off = phases[dim]
                extent = extents[dim]
                pos = coords[dim]
                plus = geometry.neighbor(node, dim, 1)
                flag = self._flag_ag + flag_off
                base = bases[dim]
                for step in range(extent - 1):
                    send = (pos + 1 - step) % extent
                    yield from self._put_flagged(
                        node, base + send * chunk, plus,
                        base + send * chunk, chunk, flag + step)
                    yield from self._wait(node, flag + step)

        return {node: worker(node)
                for node in range(self.cluster.num_nodes)}

    # -- broadcast ----------------------------------------------------------------

    def broadcast(self, data: np.ndarray, root: int = 0) -> List[np.ndarray]:
        """Bidirectional ring broadcast from ``root``.

        The root launches East and West puts *concurrently* (two DMA
        channels via the scheduler); each segment store-and-forwards, so
        delivery takes ceil((N-1)/2) hops instead of N-1.  Any topology
        uses one flat logical ring (:meth:`_flat_ring`); on a DUAL_RING
        cluster the puts to the other ring cross an S cable.
        """
        n = self.cluster.num_nodes
        if not 0 <= root < n:
            raise ConfigError(f"root {root} out of range")
        data = np.ascontiguousarray(data, dtype=np.uint8)
        nbytes = data.size
        if nbytes <= 0:
            raise ConfigError("broadcast payload must be non-empty")
        if nbytes > self.data_bytes:
            raise ConfigError("payload too large for the DMA buffers")
        self.cluster.driver(root).fill_dma_buffer(0, data)

        ring = self._flat_ring()
        self._run({node: self._bcast_ring_worker(ring, node, root, nbytes)
                   for node in range(n)}, "broadcast")

        results = []
        for rank in range(n):
            got = self.cluster.driver(rank).read_dma_buffer(0, nbytes)
            if not np.array_equal(got, data):
                raise ConfigError(f"broadcast mismatch on rank {rank}")
            results.append(got)
        return results

    def _bcast_ring_worker(self, ring: List[int], node: int, root: int,
                           nbytes: int):
        """One node of a bidirectional in-ring broadcast.

        The East segment takes the extra node of an odd split, matching
        :func:`~repro.tca.topology.ring_direction`'s E tie-break.
        """
        size = len(ring)
        pos = ring.index(node)
        rpos = ring.index(root)
        east_depth = size // 2          # ceil((size-1)/2)
        west_depth = (size - 1) // 2
        de = (pos - rpos) % size
        dw = (rpos - pos) % size

        def forward(direction: PortCode):
            nxt = ring_neighbor(ring, node, direction)
            yield from self._put_flagged(node, 0, nxt, 0, nbytes,
                                         self._flag_bcast)

        if node == root:
            branches = []
            if east_depth:
                branches.append(self.engine.process(
                    forward(PortCode.E), name=f"bcast{node}.E"))
            if west_depth:
                branches.append(self.engine.process(
                    forward(PortCode.W), name=f"bcast{node}.W"))
            for branch in branches:
                yield branch
        elif 1 <= de <= east_depth:
            yield from self._wait(node, self._flag_bcast)
            if de < east_depth:
                yield from forward(PortCode.E)
        else:
            yield from self._wait(node, self._flag_bcast)
            if dw < west_depth:
                yield from forward(PortCode.W)

    # -- barrier ------------------------------------------------------------------

    def barrier(self) -> int:
        """Dissemination barrier: ceil(log2 N) rounds of flag stores.

        Round r: rank i signals rank (i + 2^r) mod N and waits to be
        signalled by (i - 2^r) mod N.  Pure PIO flag traffic — the
        degenerate collective where the payload *is* the flag.  Returns
        the elapsed picoseconds.
        """
        n = self.cluster.num_nodes
        rounds = (n - 1).bit_length()

        def worker(rank: int):
            for r in range(rounds):
                self.flags.signal(rank, (rank + (1 << r)) % n,
                                  self._flag_barrier + r)
                yield from self._wait(rank, self._flag_barrier + r)

        start = self.engine.now_ps
        self._run({rank: worker(rank) for rank in range(n)}, "barrier")
        return self.engine.now_ps - start


# -- one-shot helpers (build a context, run one self-checking collective) ---------

def ring_allgather(cluster: TCASubCluster, block_bytes: int = 1024,
                   seed: int = 7) -> List[np.ndarray]:
    """Seeded one-shot allgather; returns each node's gathered buffer."""
    rng = np.random.default_rng(seed)
    blocks = [rng.integers(0, 256, block_bytes, dtype=np.uint8)
              for _ in range(cluster.num_nodes)]
    return TCACollectives(cluster).allgather(blocks)


def ring_allreduce(cluster: TCASubCluster, nbytes: int = 4096,
                   seed: int = 7,
                   hierarchical: Optional[bool] = None,
                   torus: Optional[bool] = None) -> List[np.ndarray]:
    """Seeded one-shot allreduce; returns each node's reduced vector."""
    rng = np.random.default_rng(seed)
    words = nbytes // 4
    vectors = [rng.integers(0, 1 << 32, words, dtype=np.uint32)
               for _ in range(cluster.num_nodes)]
    return TCACollectives(cluster).allreduce(vectors,
                                             hierarchical=hierarchical,
                                             torus=torus)


def ring_broadcast(cluster: TCASubCluster, nbytes: int = 4096,
                   root: int = 0, seed: int = 7) -> List[np.ndarray]:
    """Seeded one-shot broadcast; returns each node's received buffer."""
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, nbytes, dtype=np.uint8)
    return TCACollectives(cluster).broadcast(data, root=root)


def ring_barrier(cluster: TCASubCluster) -> int:
    """One-shot dissemination barrier; returns the elapsed picoseconds."""
    return TCACollectives(cluster).barrier()
