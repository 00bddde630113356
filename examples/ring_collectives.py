#!/usr/bin/env python3
"""Collectives on the TCA sub-cluster, via ``repro.collectives``.

Shows the programming style TCA enables at the sub-cluster level (§I):
no explicit MPI — remote memory is just addresses, synchronization is a
flag store that PCIe ordering guarantees arrives after the data.  The
``repro.collectives`` subsystem composes chained-DMA puts into ring
allgather / allreduce / broadcast / barrier, and on a dual-ring
topology (§III-D) runs a hierarchical allreduce over both rings at once
(docs/collectives.md).

Run:  python examples/ring_collectives.py
"""

from repro.apps.pingpong import pingpong_rtt_ns
from repro.collectives import (ring_allgather, ring_allreduce,
                               ring_barrier, ring_broadcast)
from repro.hw.node import NodeParams
from repro.tca.subcluster import DUAL_RING, TCASubCluster
from repro.units import KiB


def main(tiny: bool = False) -> None:
    """Run every scenario; ``tiny=True`` shrinks sizes for smoke tests."""
    pingpong_pairs = ((1, 1),) if tiny else ((1, 1), (2, 2), (4, 4))
    gather_cases = (((4, 4 * KiB),) if tiny else
                    ((4, 4 * KiB), (8, 4 * KiB), (8, 64 * KiB)))
    iterations = 2 if tiny else 8
    ar_nodes, ar_bytes = (4, 1 * KiB) if tiny else (8, 16 * KiB)

    print("PIO ping-pong (round trip / 2 = one-way latency):")
    for hops, peer in pingpong_pairs:
        cluster = TCASubCluster(8, node_params=NodeParams(num_gpus=1))
        rtt = pingpong_rtt_ns(cluster, 0, peer, iterations=iterations)
        print(f"  node0 <-> node{peer} ({hops} hop{'s' if hops > 1 else ''}):"
              f" RTT {rtt:7.0f} ns,  one-way {rtt / 2:6.0f} ns")

    print("\nring allgather (every node ends with every block):")
    for n, block in gather_cases:
        cluster = TCASubCluster(n, node_params=NodeParams(num_gpus=1))
        ring_allgather(cluster, block_bytes=block)
        sim_us = cluster.engine.now_ns / 1000
        moved = (n - 1) * n * block / 1024
        print(f"  {n} nodes x {block // 1024:3d} KiB blocks: "
              f"{sim_us:8.1f} us simulated ({moved:.0f} KiB moved)")

    print("\nring allreduce (reduce-scatter + allgather, verified):")
    cluster = TCASubCluster(ar_nodes, node_params=NodeParams(num_gpus=1))
    ring_allreduce(cluster, nbytes=ar_bytes)
    print(f"  {ar_nodes} nodes x {ar_bytes // 1024} KiB vectors: "
          f"{cluster.engine.now_ns / 1000:.2f} us (single ring)")

    print("\nbroadcast and barrier:")
    cluster = TCASubCluster(ar_nodes, node_params=NodeParams(num_gpus=1))
    ring_broadcast(cluster, nbytes=ar_bytes, root=0)
    print(f"  bidirectional broadcast, root 0: "
          f"{cluster.engine.now_ns / 1000:.2f} us")
    cluster = TCASubCluster(ar_nodes, node_params=NodeParams(num_gpus=1))
    elapsed_ps = ring_barrier(cluster)
    print(f"  dissemination barrier: {elapsed_ps / 1e3:.0f} ns")

    print("\ndual-ring topology (S-port coupling, §III-D):")
    cluster = TCASubCluster(ar_nodes, topology=DUAL_RING,
                            node_params=NodeParams(num_gpus=1))
    print(f"  rings: {cluster.rings()}")
    rtt = pingpong_rtt_ns(cluster, 0, ar_nodes // 2, iterations=2)
    print(f"  cross-ring node0 <-> node{ar_nodes // 2} (one S hop): "
          f"RTT {rtt:.0f} ns")
    cluster = TCASubCluster(ar_nodes, topology=DUAL_RING,
                            node_params=NodeParams(num_gpus=1))
    ring_allreduce(cluster, nbytes=ar_bytes)
    print(f"  hierarchical allreduce over both rings: "
          f"{cluster.engine.now_ns / 1000:.2f} us, verified")


if __name__ == "__main__":
    main()
