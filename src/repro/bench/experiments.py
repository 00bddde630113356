"""One entry point per paper table/figure (the E1-E23 index in DESIGN.md).

Each function builds fresh rigs, runs the sweep, and returns a
:class:`~repro.bench.series.SweepTable` (or a dict for scalar results)
whose ``render()`` matches the paper's rows/series.  The CLI
(``python -m repro.bench <name>``) and the pytest-benchmark wrappers in
``benchmarks/`` both call these.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import partial
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

from repro.baselines.ntb import NTBPair
from repro.errors import ConfigError, SimulationError
from repro.baselines.paths import (ConventionalPath, GDRPath, MPIHostPath,
                                   TCADMAPath, TCAPIOPath, VerbsPath)
from repro.bench.harness import (DEFAULT_SIZES, PAPER_BURST, SingleNodeRig,
                                 TwoNodeRig)
from repro.bench.loopback import LoopbackRig
from repro.bench.series import SweepTable
from repro.hw.node import NodeParams
from repro.model.specs import render_table1, render_table2
from repro.model.theory import (latency_bandwidth_bound_gbytes,
                                pcie_effective_rate_gbytes,
                                theoretical_peak_gen2_x8)
from repro.peach2.descriptor import DMADescriptor
from repro.pcie.gen import PCIeGen
from repro.tca.subcluster import TCASubCluster
from repro.tca.topology import ring_hop_count
from repro.units import KiB, MiB, bw_gbytes_per_s

FIG7_SIZES = DEFAULT_SIZES[:7]          # 64 B .. 4 KB (the paper's peak)
FIG8_SIZES = DEFAULT_SIZES              # extends past the 8 KB knee
FIG9_COUNTS = (1, 2, 4, 8, 16, 32, 64, 128, 255)


# -- E1/E2: specification tables -------------------------------------------------

def table1() -> str:
    """Table I rendered from the spec model."""
    return render_table1()


def table2() -> str:
    """Table II rendered from the spec model."""
    return render_table2()


# -- E3: Eq. (1) -----------------------------------------------------------------

def theory() -> Dict[str, float]:
    """The paper's closed-form numbers."""
    return {
        "gen2_x8_raw_gbytes": pcie_effective_rate_gbytes(PCIeGen.GEN2, 8,
                                                         mps_bytes=10**9),
        "eq1_peak_gbytes": theoretical_peak_gen2_x8(),
        "gpu_read_bound_gbytes": latency_bandwidth_bound_gbytes(
            outstanding=4, chunk_bytes=256, round_trip_ps=1232_000),
    }


# -- E4: Fig. 7 -------------------------------------------------------------------

def _measure_point(task: Tuple[str, str, int, int]) -> float:
    """One ``(op, target, size, count)`` bandwidth point on a fresh rig.

    Every call builds its own :class:`SingleNodeRig` — its own engine —
    so points are fully independent: any execution order or process
    yields the same picosecond results.
    """
    op, target, size, count = task
    rig = SingleNodeRig()
    _, bw = rig.measure(op, target, size, count)
    return bw


def _point_cost(task: Tuple[str, str, int, int]) -> float:
    """LPT weight for a measurement point: event count scales with the
    bytes moved (chunks per request times chained requests)."""
    _, _, size, count = task
    return float(size) * count


def _point_job(tasks: Sequence[Tuple[str, str, int, int]], name: str,
               mode: str, seed: int) -> Tuple[str, float]:
    """Scheduler runner for one sweep point: job ``name`` is the point's
    index into ``tasks``.  Module level, bound with ``functools.partial``,
    so it pickles for a spawn-based pool too; the payload is the
    bandwidth as JSON, which round-trips floats exactly."""
    start = time.perf_counter()
    bw = _measure_point(tasks[int(name)])
    return json.dumps(bw), time.perf_counter() - start


def _measure_points(tasks: Sequence[Tuple[str, str, int, int]],
                    workers: int) -> List[float]:
    """Run measurement points inline, or as jobs on the supervised pool.

    ``workers <= 1`` is a plain loop.  Otherwise every point is one
    :class:`~repro.bench.jobs.Job` on a
    :class:`~repro.bench.jobs.JobScheduler`, handed out heaviest first;
    a worker that dies has its point requeued on the survivors.  Results
    are read back in task order, so the sweep tables are byte-identical
    for every worker count.
    """
    if workers <= 1:
        return [_measure_point(task) for task in tasks]
    from repro.bench.jobs import DONE, Job, JobScheduler

    # A point is deterministic: one that raises would raise again, so it
    # gets one attempt.  Worker deaths are requeues, not attempts.
    jobs = [Job(name=str(i), eid="", key="", mode="", seed=0,
                cost_s=_point_cost(task), max_attempts=1)
            for i, task in enumerate(tasks)]
    outcome = JobScheduler(jobs, partial(_point_job, tasks),
                           workers=workers).run()
    if outcome.interrupted:
        raise KeyboardInterrupt
    for job, (op, target, size, count) in zip(jobs, tasks):
        if job.state != DONE:
            raise SimulationError(
                f"sweep point {op} {target} {size} B x{count} failed: "
                f"{job.error}")
    return [json.loads(job.payload_json) for job in jobs]


def fig7(sizes: Sequence[int] = FIG7_SIZES,
         count: int = PAPER_BURST,
         workers: int = 1) -> SweepTable:
    """Data size vs bandwidth, PEACH2 <-> CPU/GPU, 255 chained DMAs.

    ``workers > 1`` measures the points on that many fork workers."""
    table = SweepTable(f"Fig. 7: data size vs bandwidth ({count} chained DMAs)")
    tasks = [(op, target, size, count)
             for op in ("write", "read")
             for target in ("cpu", "gpu")
             for size in sizes]
    for (op, target, size, _), bw in zip(tasks,
                                         _measure_points(tasks, workers)):
        table.add(f"{target.upper()} ({op})", size, bw)
    return table


# -- E5: Fig. 8 ----------------------------------------------------------------------

def fig8(sizes: Sequence[int] = FIG8_SIZES) -> SweepTable:
    """Data size vs bandwidth for a single DMA request."""
    table = SweepTable("Fig. 8: data size vs bandwidth (single DMA)")
    for op in ("write", "read"):
        for target in ("cpu", "gpu"):
            for size in sizes:
                rig = SingleNodeRig()
                _, bw = rig.measure(op, target, size, count=1)
                table.add(f"{target.upper()} ({op})", size, bw)
    return table


# -- E6: Fig. 9 -----------------------------------------------------------------------

def fig9(counts: Sequence[int] = FIG9_COUNTS,
         size: int = 4 * KiB,
         workers: int = 1) -> SweepTable:
    """Number of DMA requests vs bandwidth at a fixed 4-KB data size.

    ``workers > 1`` measures the points on that many fork workers."""
    table = SweepTable("Fig. 9: DMA request count vs bandwidth (4 Kbytes)",
                       x_label="requests", x_is_size=False)
    tasks = [(op, target, size, count)
             for op in ("write", "read")
             for target in ("cpu", "gpu")
             for count in counts]
    for (op, target, _, count), bw in zip(tasks,
                                          _measure_points(tasks, workers)):
        table.add(f"{target.upper()} ({op})", count, bw)
    return table


# -- E7: §IV-A2 limits ------------------------------------------------------------------

def limits(size: int = 4 * KiB, count: int = PAPER_BURST) -> Dict[str, float]:
    """GPU-read ceiling and QPI-crossing degradation."""
    rig = SingleNodeRig(node_params=NodeParams(num_gpus=4))
    _, gpu_read = rig.measure("read", "gpu", size, count)

    # DMA write to a GPU on the other socket: P2P over QPI.
    rig2 = SingleNodeRig(node_params=NodeParams(num_gpus=4))
    far_gpu = rig2.node.gpus[2]
    ptr = rig2.cuda.cu_mem_alloc(2, 4 * MiB)
    token = rig2.cuda.cu_pointer_get_attribute(
        "CU_POINTER_ATTRIBUTE_P2P_TOKENS", ptr)
    mapping = rig2.p2p.pin(far_gpu, token, ptr.offset, ptr.nbytes)
    chain = rig2.write_chain(size, count, mapping.bus_address)
    _, qpi_write = rig2.measure_chain(chain)

    rig3 = SingleNodeRig()
    _, near_write = rig3.measure("write", "gpu", size, count)
    return {
        "gpu_read_gbytes": gpu_read,
        "gpu_write_same_socket_gbytes": near_write,
        "gpu_write_over_qpi_gbytes": qpi_write,
    }


# -- E8: Fig. 10 / §IV-B1 latency ----------------------------------------------------------

def latency() -> Dict[str, float]:
    """PIO loopback latency through two PEACH2 chips and one cable."""
    rig = LoopbackRig()
    commit_ns = rig.pio_commit_latency_ns()
    rig2 = LoopbackRig()
    polled = rig2.pio_store_latency()
    return {
        "pio_one_way_ns": commit_ns,
        "pio_polled_ns": polled["polled_ns"],
        "paper_ns": 782.0,
        "infiniband_fdr_claim_ns": 1000.0,
    }


# -- E9: Fig. 12 -----------------------------------------------------------------------------

def fig12(sizes: Sequence[int] = FIG7_SIZES,
          count: int = PAPER_BURST) -> SweepTable:
    """Remote DMA write bandwidth to the adjacent node (plus local refs)."""
    table = SweepTable(
        f"Fig. 12: size vs bandwidth to adjacent-node CPU/GPU "
        f"({count} chained remote DMA writes)")
    for target in ("cpu", "gpu"):
        for size in sizes:
            rig = TwoNodeRig()
            _, bw = rig.measure_remote_write(size, target, count)
            table.add(f"remote {target.upper()}", size, bw)
    # The local curves Fig. 12 overlays for comparison.
    for target in ("cpu", "gpu"):
        for size in sizes:
            rig = SingleNodeRig()
            _, bw = rig.measure("write", target, size, count)
            table.add(f"local {target.upper()} (write)", size, bw)
    return table


# -- E10: motivation comparison -----------------------------------------------------------------

COMPARISON_SIZES = (8, 64, 512, 4 * KiB, 32 * KiB, 256 * KiB, 1 * MiB)


def comparison_host(sizes: Sequence[int] = COMPARISON_SIZES) -> SweepTable:
    """Host-to-host: TCA PIO / TCA DMA / IB verbs / MPI."""
    table = SweepTable("E10a: host-to-host transfer time",
                       y_label="microseconds")
    paths = [TCAPIOPath(), TCADMAPath(), VerbsPath(), MPIHostPath()]
    for path in paths:
        for size in sizes:
            if isinstance(path, TCAPIOPath) and size > 32 * KiB:
                continue
            result = path.transfer(size)
            table.add(path.name, size, result.latency_us)
    return table


def comparison_gpu(sizes: Sequence[int] = COMPARISON_SIZES) -> SweepTable:
    """GPU-to-GPU: TCA DMA vs conventional 3-copy vs IB+GDR."""
    table = SweepTable("E10b: GPU-to-GPU transfer time",
                       y_label="microseconds")
    paths = [TCADMAPath(gpu=True), ConventionalPath(),
             ConventionalPath(chunk_bytes=256 * KiB), GDRPath()]
    for path in paths:
        for size in sizes:
            result = path.transfer(size)
            table.add(path.name, size, result.latency_us)
    return table


# -- E11: DMAC ablation ------------------------------------------------------------------------------

def ablation_dmac(sizes: Sequence[int] = (4 * KiB, 32 * KiB, 256 * KiB,
                                          1 * MiB)) -> SweepTable:
    """Two-phase (current) vs pipelined (next-generation) remote put."""
    table = SweepTable("E11: two-phase vs pipelined DMAC (host-to-host put)")
    for pipelined in (False, True):
        path = TCADMAPath(pipelined=pipelined)
        for size in sizes:
            result = path.transfer(size)
            table.add(path.name, size, result.bandwidth_gbytes)
    return table


# -- E12: ring-size ablation ---------------------------------------------------------------------------

def ablation_ring(ring_sizes: Iterable[int] = (2, 4, 8, 16)) -> SweepTable:
    """PIO latency vs hop count: why sub-clusters stay at 8-16 nodes."""
    table = SweepTable("E12: ring size vs farthest-node PIO latency",
                       x_label="ring nodes", y_label="nanoseconds",
                       x_is_size=False)
    for n in ring_sizes:
        cluster = TCASubCluster(n, node_params=NodeParams(num_gpus=1))
        engine = cluster.engine
        dst_node = n // 2  # the antipodal node: worst case
        hops = ring_hop_count(n, 0, dst_node)
        drv = cluster.driver(dst_node)
        offset = 0x40
        target = cluster.address_map.global_address(
            dst_node, 2, drv.dma_buffer(offset))
        dram = cluster.node(dst_node).dram
        start = engine.now_ps
        cluster.node(0).cpu.store_u32(target, 0xBEEF0001)

        def observe(dram=dram, addr=drv.dma_buffer(offset)):
            while True:
                word = dram.cpu_read(addr, 4)
                if int.from_bytes(word.tobytes(), "little") == 0xBEEF0001:
                    return engine.now_ps
                yield 100

        end = engine.run_process(observe(), name="observe")
        table.add("one-way latency", n, (end - start) / 1000.0)
        table.add("hops", n, hops)
    return table


# -- E16: PIO vs DMA crossover (§III-F's transport split) -------------------------------------------------

def pio_dma_crossover(sizes: Sequence[int] = (8, 64, 256, 1 * KiB, 2 * KiB,
                                              4 * KiB, 16 * KiB)) -> SweepTable:
    """Destination-observed one-way time: PIO put vs one-shot DMA put.

    Quantifies §III-F's guidance — "PIO communication is useful for the
    short message transfer" — by locating the message size where the
    chained-DMA machinery (doorbell + descriptor fetch + interrupt)
    overtakes write-combining stores.
    """
    from repro.baselines.paths import TCADMAPath, TCAPIOPath

    table = SweepTable("E16: PIO vs DMA one-way time",
                       y_label="microseconds")
    for path in (TCAPIOPath(), TCADMAPath()):
        for size in sizes:
            table.add(path.name, size, path.transfer(size).latency_us)
    return table


# -- E17: the hierarchical network (§II-B) ------------------------------------------------------------------

def hierarchy(sizes: Sequence[int] = (64, 1 * KiB, 16 * KiB,
                                      256 * KiB)) -> SweepTable:
    """Local (TCA) vs global (InfiniBand) put time on HA-PACS/TCA.

    §II-B's design point: "TCA interconnect for local communication with
    low latency and InfiniBand for global communication with high
    bandwidth" — measured on a 2x4-node hybrid machine.
    """
    from repro.tca.hybrid import HybridCluster, HybridComm

    table = SweepTable("E17: hierarchical network — local vs global put",
                       y_label="microseconds")
    for label, src, dst in (("local (TCA)", 0, 1), ("global (IB)", 0, 4)):
        for size in sizes:
            cluster = HybridCluster(num_subclusters=2,
                                    nodes_per_subcluster=4,
                                    node_params=NodeParams(num_gpus=1))
            comm = HybridComm(cluster)
            sub, local = cluster.locate(src)
            import numpy as np
            data = np.full(size, 0x5A, dtype=np.uint8)
            cluster.subclusters[sub].driver(local).fill_dma_buffer(0, data)
            start = cluster.engine.now_ps
            cluster.engine.run_process(comm.put(src, dst, 0, 0x40000, size))
            table.add(label, size, (cluster.engine.now_ps - start) / 1e6)
    return table


# -- E18: collectives — TCA-native vs MPI over IB -----------------------------------------------------------

def collectives(block_sizes: Sequence[int] = (1 * KiB, 4 * KiB, 64 * KiB),
                num_nodes: int = 4) -> SweepTable:
    """Ring allgather on N nodes: TCA sub-cluster vs MPI over QDR.

    The §V claim made concrete: TCA applications "do not rely on the MPI
    software stack", so a collective is just puts and flag polls; the MPI
    version pays per-message stack and protocol costs every step.
    """
    import numpy as np

    from repro.baselines.collectives import ring_allgather_mpi
    from repro.baselines.fabric import IBGroup
    from repro.collectives import ring_allgather

    table = SweepTable(
        f"E18: ring allgather, {num_nodes} nodes (total time)",
        x_label="block size", y_label="microseconds")
    for block in block_sizes:
        cluster = TCASubCluster(num_nodes,
                                node_params=NodeParams(num_gpus=1))
        ring_allgather(cluster, block_bytes=block)
        table.add("tca", block, cluster.engine.now_ps / 1e6)

        group = IBGroup(num_nodes, node_params=NodeParams(num_gpus=1))
        for r in range(num_nodes):
            data = np.random.default_rng(r).integers(0, 256, block,
                                                     dtype=np.uint8)
            group.nodes[r].dram.cpu_write(group.buffers[r] + r * block,
                                          data)
        start = group.engine.now_ps
        group.engine.run_all(
            ring_allgather_mpi(group.world, group.buffers, block),
            "mpi-allgather")
        table.add("mpi-ib", block, (group.engine.now_ps - start) / 1e6)
    return table


# -- E19: ring contention (§II-B's scaling limit) -----------------------------------------------------------

def _shift_traffic(cluster: TCASubCluster, partner: Callable[[int], int],
                   nbytes: int, name: str) -> int:
    """Every node DMA-puts ``nbytes`` to ``partner(node)`` at once.

    Each flow is one chain of 4 KiB descriptors from the source chip's
    BAR2 into the partner's DMA buffer.  Returns the slowest flow's
    elapsed picoseconds; E19 and E23 both measure with it.
    """
    engine = cluster.engine
    comm_map = cluster.address_map

    def flow(src: int):
        dst = partner(src)
        driver = cluster.driver(src)
        chip = cluster.board(src).chip
        target = comm_map.global_address(
            dst, 2, cluster.driver(dst).dma_buffer(0))
        chain = [DMADescriptor(chip.bar2.base + i * 4096,
                               target + i * 4096, 4096)
                 for i in range(nbytes // 4096)]
        elapsed = yield engine.process(driver.run_chain(0, chain))
        return elapsed

    procs = [engine.process(flow(src), name=f"flow{src}")
             for src in range(cluster.num_nodes)]
    engine.run_all(procs, name)
    return max(p.result for p in procs)


def contention(ring_sizes: Sequence[int] = (4, 8, 16),
               nbytes: int = 256 * KiB) -> SweepTable:
    """All-nodes-shift traffic on the ring: per-flow bandwidth vs distance.

    §II-B: "a large number of nodes degrades the performance".  When every
    node puts to its k-hop neighbour simultaneously, each flow's packets
    occupy k consecutive ring links, so per-flow bandwidth falls as ~1/k —
    the congestion reason (besides latency, E12) sub-clusters stay small.
    """
    table = SweepTable("E19: simultaneous k-hop shifts — per-flow bandwidth",
                       x_label="hop distance", x_is_size=False)
    for n in ring_sizes:
        max_hops = n // 2
        for hops in sorted({1, 2, max_hops}):
            cluster = TCASubCluster(n, node_params=NodeParams(num_gpus=1))
            worst = _shift_traffic(cluster,
                                   lambda src: (src + hops) % n,
                                   nbytes, "contention")
            table.add(f"{n}-node ring", hops,
                      bw_gbytes_per_s(nbytes, worst))
    return table


# -- E20: allreduce — TCA-native vs MPI over IB ------------------------------------------------------------

def collective_allreduce(sizes: Sequence[int] = (1 * KiB, 4 * KiB,
                                                 16 * KiB, 64 * KiB,
                                                 256 * KiB),
                         num_nodes: int = 4) -> SweepTable:
    """Ring allreduce on N nodes: TCA puts + flags vs MPI over QDR.

    Extends E18's §V argument from allgather to the reduction collective
    that dominates real workloads.  The TCA side is
    :meth:`repro.collectives.TCACollectives.allreduce` (reduce-scatter +
    allgather as chained-DMA/PIO puts with flag-store completion); the
    MPI side is the same algorithm over the simulated IB fabric, paying
    eager/rendezvous protocol and stack costs per step.  Small vectors
    are latency-bound, where TCA's no-software-stack puts win; large
    ones are bandwidth-bound, where QDR IB out-muscles the two-phase
    DMAC — the crossover the anchor table pins.
    """
    import numpy as np

    from repro.baselines.collectives import ring_allreduce_mpi
    from repro.baselines.fabric import IBGroup
    from repro.collectives import TCACollectives

    table = SweepTable(
        f"E20: ring allreduce, {num_nodes} nodes (total time)",
        x_label="vector size", y_label="microseconds")
    for nbytes in sizes:
        rng = np.random.default_rng(nbytes)
        vectors = [rng.integers(0, 1 << 32, nbytes // 4, dtype=np.uint32)
                   for _ in range(num_nodes)]

        cluster = TCASubCluster(num_nodes,
                                node_params=NodeParams(num_gpus=1))
        start = cluster.engine.now_ps
        TCACollectives(cluster).allreduce(vectors)
        table.add("tca", nbytes, (cluster.engine.now_ps - start) / 1e6)

        group = IBGroup(num_nodes, node_params=NodeParams(num_gpus=1))
        for r in range(num_nodes):
            group.nodes[r].dram.cpu_write(group.buffers[r],
                                          vectors[r].view(np.uint8))
        start = group.engine.now_ps
        group.engine.run_all(
            ring_allreduce_mpi(group.world, group.buffers, nbytes),
            "mpi-allreduce")
        table.add("mpi-ib", nbytes, (group.engine.now_ps - start) / 1e6)
    return table


# -- E21: dual-ring vs single-ring collectives ------------------------------------------------------------

def collective_dual_ring(sizes: Sequence[int] = (1 * KiB, 4 * KiB,
                                                 16 * KiB, 64 * KiB),
                         num_nodes: int = 8) -> SweepTable:
    """Allreduce on one flat ring vs the S-coupled dual ring (§III-D).

    The dual-ring topology exists to keep hop counts down as
    sub-clusters grow; this experiment shows it pays off for whole
    collectives, not just point-to-point puts.  The hierarchical
    schedule (per-ring reduce-scatter, one S-port column exchange,
    per-ring allgather) serializes N-1 put steps against the flat
    ring's 2(N-1), so latency-bound sizes approach a 2x speedup at
    8 nodes while bandwidth-bound sizes converge (both move the same
    bytes per link).

    Each run also goes through the critical-path analyzer
    (:mod:`repro.obs.critpath`), and the measured serialized step count
    lands in the ``* steps`` series — the §III-D schedule-length claim
    as data the anchor table can pin.
    """
    import numpy as np

    from repro.collectives import TCACollectives
    from repro.obs.critpath import trace_collective
    from repro.tca.subcluster import DUAL_RING

    table = SweepTable(
        f"E21: allreduce topology, {num_nodes} nodes (total time)",
        x_label="vector size", y_label="microseconds")
    for nbytes in sizes:
        rng = np.random.default_rng(nbytes)
        vectors = [rng.integers(0, 1 << 32, nbytes // 4, dtype=np.uint32)
                   for _ in range(num_nodes)]
        for label, topology in (("single-ring", "ring"),
                                ("dual-ring", DUAL_RING)):
            cluster = TCASubCluster(num_nodes, topology=topology,
                                    node_params=NodeParams(num_gpus=1))
            coll = TCACollectives(cluster)
            start = cluster.engine.now_ps
            _, crit = trace_collective(coll,
                                       lambda: coll.allreduce(vectors))
            table.add(label, nbytes,
                      (cluster.engine.now_ps - start) / 1e6)
            table.add(f"{label} steps", nbytes, float(crit.step_count))
    return table


# -- E22: ring vs torus allreduce scaling ------------------------------------------------------------------

def collective_torus(node_counts: Sequence[int] = (16, 64),
                     nbytes: int = 4 * KiB) -> SweepTable:
    """Allreduce scaling: flat ring vs square 2D torus, 16 and 64 nodes.

    The §II-B scaling limit is about latency *and* schedule length: a
    flat N-ring allreduce serializes 2(N-1) put steps.  Folding the same
    nodes into a k x k torus (``repro.tca.fabric``) lets the collective
    run per-dimension ring schedules instead — 2*sum(n_d - 1) steps, so
    2(k-1) per phase pair — and the gap widens with N: 30 vs 12 steps at
    16 nodes, 126 vs 28 at 64.  Each run goes through the critical-path
    analyzer so the step counts land in the ``* steps`` series the
    anchor table pins, exactly like E21.
    """
    import math

    import numpy as np

    from repro.collectives import TCACollectives
    from repro.obs.critpath import trace_collective
    from repro.tca.subcluster import TORUS

    table = SweepTable(
        f"E22: allreduce scaling, ring vs torus ({nbytes} B vectors)",
        x_label="nodes", x_is_size=False, y_label="microseconds")
    for n in node_counts:
        side = math.isqrt(n)
        if side * side != n:
            raise ConfigError(
                f"collective-torus needs square node counts, got {n}")
        rng = np.random.default_rng(n)
        vectors = [rng.integers(0, 1 << 32, nbytes // 4, dtype=np.uint32)
                   for _ in range(n)]
        for label, kwargs in (
                ("ring", {}),
                ("torus", {"topology": TORUS, "extents": (side, side)})):
            cluster = TCASubCluster(n, node_params=NodeParams(num_gpus=1),
                                    **kwargs)
            coll = TCACollectives(cluster)
            start = cluster.engine.now_ps
            _, crit = trace_collective(coll,
                                       lambda: coll.allreduce(vectors))
            table.add(label, n, (cluster.engine.now_ps - start) / 1e6)
            table.add(f"{label} steps", n, float(crit.step_count))
    return table


# -- E23: bisection bandwidth ------------------------------------------------------------------------------

def bisection(node_counts: Sequence[int] = (16, 64),
              nbytes: int = 64 * KiB) -> SweepTable:
    """Antipodal shift traffic: aggregate bandwidth across the bisection.

    Every node DMA-puts to the node half way around its dimension-0
    ring, so every flow crosses the fabric's bisection.  A flat N-ring
    offers two bisection links and antipodal flows pay N/2 hops; a
    k x k torus keeps k separate dimension-0 rings (2k bisection links)
    and antipodal is only k/2 hops, so aggregate bisection bandwidth
    scales with k instead of staying flat.  The y value is the sum of
    all N flows' bytes over the slowest flow's elapsed time.
    """
    import math

    from repro.tca.subcluster import TORUS

    table = SweepTable("E23: bisection bandwidth — antipodal shifts",
                       x_label="nodes", x_is_size=False)
    for n in node_counts:
        side = math.isqrt(n)
        if side * side != n:
            raise ConfigError(
                f"bisection needs square node counts, got {n}")
        for label, kwargs in (
                ("ring", {}),
                ("torus", {"topology": TORUS, "extents": (side, side)})):
            cluster = TCASubCluster(n, node_params=NodeParams(num_gpus=1),
                                    **kwargs)
            geometry = cluster.geometry

            def partner(src: int) -> int:
                coords = list(geometry.coords_of(src))
                extent = geometry.extents[0]
                coords[0] = (coords[0] + extent // 2) % extent
                return geometry.index_of(coords)

            worst = _shift_traffic(cluster, partner, nbytes, "bisection")
            table.add(label, n, n * bw_gbytes_per_s(nbytes, worst))
    return table


# -- E13: functional routing (§III-E, Figs. 4-5) ------------------------------------------------------------

def routing(ring_sizes: Iterable[int] = (2, 3, 4, 8)) -> Dict[str, object]:
    """All-pairs PIO delivery on rings: the Fig. 5 comparator tables live.

    The same scenario ``tests/tca/test_routing_e2e.py`` asserts, exposed
    as a registry experiment so the suite can machine-check E13: every
    (source, destination) pair stores a unique marker through the TCA
    window and the destination driver must read it back byte-exact.
    """
    from repro.tca.comm import TCAComm

    results: Dict[str, object] = {}
    all_ok = True
    for n in ring_sizes:
        cluster = TCASubCluster(n, node_params=NodeParams(num_gpus=1))
        comm = TCAComm(cluster)
        pairs = [(src, dst) for src in range(n) for dst in range(n)
                 if src != dst]
        for src, dst in pairs:
            slot = (src * n + dst) * 8
            target = comm.host_global(
                dst, cluster.driver(dst).dma_buffer(slot))
            cluster.node(src).cpu.store_u32(target,
                                            0xC0DE0000 + src * 256 + dst)
        cluster.engine.run()
        misrouted = 0
        for src, dst in pairs:
            slot = (src * n + dst) * 8
            got = cluster.driver(dst).read_dma_buffer(slot, 4)
            if int.from_bytes(got.tobytes(), "little") != \
                    0xC0DE0000 + src * 256 + dst:
                misrouted += 1
        results[f"ring{n}_pairs_delivered"] = len(pairs) - misrouted
        results[f"ring{n}_pairs_misrouted"] = misrouted
        all_ok = all_ok and misrouted == 0
    results["all_pairs_ok"] = all_ok
    return results


# -- E15: PEARL ring healing --------------------------------------------------------------------------------

def healing(num_nodes: int = 4) -> Dict[str, object]:
    """Cut a ring cable, heal, and re-verify delivery plus detour cost.

    The E15 scenario of ``tests/tca/test_healing.py`` as a registry
    experiment: after ``cut_ring_cable(0)`` and ``heal()``, every pair
    must communicate again, and the formerly adjacent 0 -> 1 pair must
    pay the long-way-around latency.
    """
    from repro.tca.comm import TCAComm

    def one_way_ns(cluster, comm) -> float:
        engine = cluster.engine
        slot = 0x800
        target = comm.host_global(1, cluster.driver(1).dma_buffer(slot))
        dram = cluster.node(1).dram
        addr = cluster.driver(1).dma_buffer(slot)
        start = engine.now_ps
        cluster.node(0).cpu.store_u32(target, 0x77)

        def observe():
            while True:
                if dram.cpu_read(addr, 1)[0] == 0x77:
                    return engine.now_ps
                yield 100

        return (engine.run_process(observe(), name="observe") - start) / 1e3

    healthy = TCASubCluster(num_nodes, node_params=NodeParams(num_gpus=1))
    before_ns = one_way_ns(healthy, TCAComm(healthy))

    cluster = TCASubCluster(num_nodes, node_params=NodeParams(num_gpus=1))
    comm = TCAComm(cluster)
    cluster.cut_ring_cable(0)
    chain = cluster.heal()
    after_ns = one_way_ns(cluster, comm)

    pairs = [(src, dst) for src in range(num_nodes)
             for dst in range(num_nodes) if src != dst]
    for src, dst in pairs:
        slot = (src * num_nodes + dst) * 8
        target = comm.host_global(dst, cluster.driver(dst).dma_buffer(slot))
        cluster.node(src).cpu.store_u32(target, 0xCE110000 + slot)
    cluster.engine.run()
    delivered = 0
    for src, dst in pairs:
        slot = (src * num_nodes + dst) * 8
        got = cluster.driver(dst).read_dma_buffer(slot, 4)
        if int.from_bytes(got.tobytes(), "little") == 0xCE110000 + slot:
            delivered += 1
    return {
        "healed_chain": list(chain),
        "pairs_delivered_after_heal": delivered,
        "all_pairs_ok_after_heal": delivered == len(pairs),
        "adjacent_one_way_ns": before_ns,
        "healed_one_way_ns": after_ns,
        "detour_factor": after_ns / before_ns,
    }


# -- E14: NTB comparison ----------------------------------------------------------------------------------

def ablation_ntb() -> Dict[str, object]:
    """NTB vs PEACH2: latency parity, but very different failure modes."""
    ntb = NTBPair()
    ntb_latency = ntb.store_latency_ns()
    ntb.cut_cable()

    rig = LoopbackRig()
    peach2_latency = rig.pio_commit_latency_ns()
    # Cut a PEACH2 ring cable: the host connection (port N) is unaffected.
    rig.board_a.chip.port_e.link.take_down()
    host_link_up = rig.board_a.chip.port_n.link.up
    return {
        "ntb_store_latency_ns": ntb_latency,
        "peach2_store_latency_ns": peach2_latency,
        "ntb_hosts_require_reboot_after_unplug": ntb.hosts_require_reboot,
        "peach2_host_link_up_after_ring_cut": host_link_up,
    }


# -- the experiment registry (E1-E23) -----------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSpec:
    """One registry entry: an E-number, a CLI name, and how to run it.

    ``params`` are the full-fidelity arguments (EXPERIMENTS.md numbers);
    ``smoke_params`` shrink the sweep while *keeping every point a paper
    anchor reads*, so ``tca-bench suite --smoke`` still checks the whole
    anchor table; ``tiny_params`` shrink further for the determinism
    tests, where only byte-stability matters.  ``cost_s`` is a rough
    full-mode wall-clock hint used to balance shards.
    """

    eid: str
    name: str
    fn: Callable[..., object]
    title: str
    kind: str                      # "exact" | "anchor" | "shape" | "extension"
    params: Mapping[str, object] = field(default_factory=dict)
    smoke_params: Optional[Mapping[str, object]] = None
    tiny_params: Optional[Mapping[str, object]] = None
    cost_s: float = 0.1

    def params_for(self, mode: str) -> Dict[str, object]:
        """The keyword arguments one suite mode runs this entry with."""
        if mode == "full":
            return dict(self.params)
        if mode == "smoke":
            return dict(self.smoke_params if self.smoke_params is not None
                        else self.params)
        if mode == "tiny":
            if self.tiny_params is not None:
                return dict(self.tiny_params)
            return self.params_for("smoke")
        raise ConfigError(f"unknown suite mode {mode!r}")

    def run(self, mode: str = "full") -> object:
        """Execute the experiment in one suite mode."""
        return self.fn(**self.params_for(mode))


def _specs() -> List[ExperimentSpec]:
    S = ExperimentSpec
    return [
        S("E1", "table1", table1, "Table I (HA-PACS base cluster)", "exact"),
        S("E2", "table2", table2, "Table II (testbed)", "exact"),
        S("E3", "theory", theory, "Eq. (1): theoretical peak", "anchor"),
        S("E4", "fig7", fig7, "Fig. 7: size vs bandwidth, 255 chained DMAs",
          "anchor",
          smoke_params={"sizes": (256, 4 * KiB)},
          tiny_params={"sizes": (256,), "count": 8}, cost_s=3.5),
        S("E5", "fig8", fig8, "Fig. 8: single DMA", "shape",
          smoke_params={"sizes": (4 * KiB, 32 * KiB)},
          tiny_params={"sizes": (1 * KiB,)}, cost_s=0.2),
        S("E6", "fig9", fig9, "Fig. 9: request count at 4 KB", "anchor",
          smoke_params={"counts": (1, 2, 4, 255)},
          tiny_params={"counts": (1, 2)}, cost_s=2.9),
        S("E7", "limits", limits, "§IV-A2 limits", "anchor",
          tiny_params={"count": 8}, cost_s=1.3),
        S("E8", "latency", latency, "Fig. 10 / §IV-B1: PIO latency",
          "anchor"),
        S("E9", "fig12", fig12, "Fig. 12: remote DMA write", "shape",
          smoke_params={"sizes": (256, 4 * KiB)},
          tiny_params={"sizes": (512,), "count": 4}, cost_s=2.7),
        S("E10", "comparison-host", comparison_host,
          "motivation: host-to-host paths", "shape",
          smoke_params={"sizes": (8, 1 * MiB)},
          tiny_params={"sizes": (64,)}, cost_s=3.4),
        S("E10", "comparison-gpu", comparison_gpu,
          "motivation: GPU-to-GPU paths", "shape",
          smoke_params={"sizes": (64, 1 * MiB)},
          tiny_params={"sizes": (64,)}, cost_s=5.7),
        S("E11", "ablation-dmac", ablation_dmac,
          "two-phase vs pipelined DMAC", "prediction",
          smoke_params={"sizes": (1 * MiB,)},
          tiny_params={"sizes": (32 * KiB,)}, cost_s=2.5),
        S("E12", "ablation-ring", ablation_ring,
          "ring size vs latency", "prediction",
          tiny_params={"ring_sizes": (2,)}, cost_s=0.2),
        S("E13", "routing", routing,
          "functional: address map + routing", "functional",
          smoke_params={"ring_sizes": (2, 4)},
          tiny_params={"ring_sizes": (2,)}),
        S("E14", "ablation-ntb", ablation_ntb, "NTB comparison", "shape"),
        S("E15", "healing", healing, "PEARL reliability (ring healing)",
          "extension"),
        S("E16", "pio-dma-crossover", pio_dma_crossover,
          "PIO vs DMA crossover", "extension",
          smoke_params={"sizes": (1 * KiB, 2 * KiB)},
          tiny_params={"sizes": (64, 8 * KiB)}, cost_s=0.1),
        S("E17", "hierarchy", hierarchy,
          "hierarchical network: local vs global put", "extension",
          tiny_params={"sizes": (64,)}, cost_s=0.5),
        S("E18", "collectives", collectives,
          "collectives without an MPI stack", "extension",
          tiny_params={"block_sizes": (1 * KiB,), "num_nodes": 2},
          cost_s=1.4),
        S("E19", "contention", contention,
          "ring contention: simultaneous k-hop shifts", "extension",
          smoke_params={"ring_sizes": (4,)},
          tiny_params={"ring_sizes": (4,), "nbytes": 16 * KiB},
          cost_s=12.9),
        S("E20", "collective-allreduce", collective_allreduce,
          "allreduce: TCA vs MPI crossover", "extension",
          smoke_params={"sizes": (1 * KiB, 256 * KiB)},
          tiny_params={"sizes": (1 * KiB,), "num_nodes": 2},
          cost_s=2.0),
        S("E21", "collective-dual-ring", collective_dual_ring,
          "allreduce: dual-ring vs single-ring", "extension",
          smoke_params={"sizes": (1 * KiB,)},
          tiny_params={"sizes": (1 * KiB,), "num_nodes": 4},
          cost_s=2.0),
        S("E22", "collective-torus", collective_torus,
          "allreduce scaling: ring vs 2D torus", "extension",
          tiny_params={"node_counts": (4,), "nbytes": 1 * KiB},
          cost_s=8.0),
        S("E23", "bisection", bisection,
          "bisection bandwidth: antipodal shifts", "extension",
          smoke_params={"node_counts": (16,)},
          tiny_params={"node_counts": (4,), "nbytes": 16 * KiB},
          cost_s=23.0),
    ]


#: Registry entry name -> spec; covers experiments E1 through E23.
REGISTRY: Dict[str, ExperimentSpec] = {s.name: s for s in _specs()}

#: The distinct experiment ids the registry covers, in paper order.
EXPERIMENT_IDS: Tuple[str, ...] = tuple(
    dict.fromkeys(s.eid for s in REGISTRY.values()))
