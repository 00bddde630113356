"""Bit-reproducibility: identical builds produce identical simulations."""

import numpy as np

from repro.bench.harness import SingleNodeRig, TwoNodeRig
from repro.bench.loopback import LoopbackRig
from repro.hw.node import NodeParams
from repro.tca.subcluster import TCASubCluster
from repro.units import KiB


def test_dma_measurement_reproducible():
    runs = []
    for _ in range(2):
        rig = SingleNodeRig()
        elapsed, bw = rig.measure("write", "cpu", 4 * KiB, 16)
        runs.append((elapsed, bw))
    assert runs[0] == runs[1]


def test_latency_measurement_reproducible():
    assert (LoopbackRig().pio_commit_latency_ns()
            == LoopbackRig().pio_commit_latency_ns())


def test_remote_measurement_reproducible():
    a = TwoNodeRig().measure_remote_write(1 * KiB, "cpu", 8)
    b = TwoNodeRig().measure_remote_write(1 * KiB, "cpu", 8)
    assert a == b


def test_full_cluster_event_count_reproducible():
    """Even the engine's event count matches between identical runs."""
    def run():
        from repro.collectives import ring_allgather

        cluster = TCASubCluster(3, node_params=NodeParams(num_gpus=1))
        ring_allgather(cluster, block_bytes=1024)
        return (cluster.engine.now_ps, cluster.engine.events_processed)

    assert run() == run()
