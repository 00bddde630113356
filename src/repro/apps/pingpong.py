"""PIO ping-pong between two sub-cluster nodes.

The classic latency microbenchmark: node A stores a counter into node B's
memory, B's polling loop answers by storing it back, and the round-trip
time is halved — the way the paper derives its 782 ns figure (§IV-B1).
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.tca.comm import TCAComm
from repro.tca.subcluster import TCASubCluster


def pingpong_rtt_ns(cluster: TCASubCluster, node_a: int = 0,
                    node_b: int = 1, iterations: int = 16) -> float:
    """Average PIO round-trip time (ns) between two nodes.

    Each iteration: A stores ``i`` at B, B polls and echoes ``i`` back,
    A polls.  Returns mean RTT over ``iterations``.
    """
    if iterations < 1:
        raise ConfigError("need at least one iteration")
    comm = TCAComm(cluster)
    engine = cluster.engine
    drv_a = cluster.driver(node_a)
    drv_b = cluster.driver(node_b)
    slot_a, slot_b = 0x800, 0x800
    addr_at_b = comm.host_global(node_b, drv_b.dma_buffer(slot_b))
    addr_at_a = comm.host_global(node_a, drv_a.dma_buffer(slot_a))

    def responder():
        for i in range(1, iterations + 1):
            yield engine.process(
                drv_b.poll_dma_buffer_u32(slot_b, i), name="b-poll")
            cluster.node(node_b).cpu.store_u32(addr_at_a, i)

    def initiator():
        engine.process(responder(), name="responder")
        total = 0
        for i in range(1, iterations + 1):
            start = cluster.node(node_a).cpu.read_tsc()
            cluster.node(node_a).cpu.store_u32(addr_at_b, i)
            yield engine.process(
                drv_a.poll_dma_buffer_u32(slot_a, i), name="a-poll")
            total += cluster.node(node_a).cpu.read_tsc() - start
        return total / iterations

    mean_rtt_ps = engine.run_process(initiator(), name="pingpong")
    return mean_rtt_ps / 1000.0
