"""Property-based tests on ring routing and end-to-end delivery."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.hw.node import NodeParams
from repro.peach2.registers import PortCode
from repro.tca.address_map import TCAAddressMap
from repro.tca.comm import TCAComm
from repro.tca.fabric import TorusGeometry, fabric_route_entries
from repro.tca.subcluster import TCASubCluster
from repro.tca.topology import ring_hop_count
from repro.units import GiB

AMAP = TCAAddressMap(512 * GiB)


def ring_route_entries(amap, node_id, ring):
    """A single ring's table: the 1D torus over ``ring`` in cable order."""
    return fabric_route_entries(amap, node_id, TorusGeometry((len(ring),)),
                                ring)


def route_port(entries, address):
    for entry in entries:
        if entry.matches(address):
            return entry.port
    return None


@given(st.integers(min_value=2, max_value=16), st.data())
def test_ring_tables_route_every_address(n, data):
    ring = list(range(n))
    me = data.draw(st.integers(0, n - 1))
    entries = ring_route_entries(AMAP, me, ring)
    dst = data.draw(st.integers(0, n - 1))
    block = data.draw(st.integers(0, 3))
    offset = data.draw(st.integers(0, 8 * GiB - 1))
    address = AMAP.global_address(dst, block, offset)
    port = route_port(entries, address)
    if dst == me:
        assert port is PortCode.N
    else:
        assert port in (PortCode.E, PortCode.W)


@given(st.integers(min_value=2, max_value=16), st.data())
def test_hop_by_hop_walk_terminates_at_destination(n, data):
    ring = list(range(n))
    tables = {i: ring_route_entries(AMAP, i, ring) for i in ring}
    src = data.draw(st.integers(0, n - 1))
    dst = data.draw(st.integers(0, n - 1))
    address = AMAP.global_address(dst, 2, 0)
    current, hops = src, 0
    while current != dst:
        port = route_port(tables[current], address)
        current = (current + 1) % n if port is PortCode.E else (current - 1) % n
        hops += 1
        assert hops <= n
    assert hops == ring_hop_count(n, src, dst)


@settings(max_examples=8)
@given(st.integers(min_value=2, max_value=5), st.data())
def test_random_pio_payloads_delivered_intact(n, data):
    """Full simulation: random payloads between random node pairs."""
    cluster = TCASubCluster(n, node_params=NodeParams(num_gpus=1))
    comm = TCAComm(cluster)
    src = data.draw(st.integers(0, n - 1))
    dst = data.draw(st.integers(0, n - 1))
    if src == dst:
        dst = (dst + 1) % n
    nbytes = data.draw(st.integers(1, 512))
    payload = np.frombuffer(
        data.draw(st.binary(min_size=nbytes, max_size=nbytes)),
        dtype=np.uint8).copy()
    offset = data.draw(st.integers(0, 1024)) * 8
    target = comm.host_global(dst,
                              cluster.driver(dst).dma_buffer(offset))
    comm.put_pio(src, target, payload)
    cluster.engine.run()
    got = cluster.driver(dst).read_dma_buffer(offset, nbytes)
    assert np.array_equal(got, payload)


@settings(max_examples=6)
@given(st.data())
def test_random_dma_chains_preserve_data(data):
    """Chained DMA with random sizes/offsets lands byte-exact."""
    cluster = TCASubCluster(2, node_params=NodeParams(num_gpus=1))
    comm = TCAComm(cluster)
    chunks = data.draw(st.lists(st.integers(1, 4096), min_size=1,
                                max_size=6))
    rng_bytes = [np.frombuffer(
        data.draw(st.binary(min_size=c, max_size=c)), dtype=np.uint8).copy()
        for c in chunks]
    src_base = cluster.driver(0).dma_buffer(0)
    pos = 0
    for blob in rng_bytes:
        cluster.node(0).dram.cpu_write(src_base + pos, blob)
        pos += len(blob)
    total = pos
    dst = comm.host_global(1, cluster.driver(1).dma_buffer(0))
    cluster.engine.run_process(comm.put_dma(0, src_base, dst, total))
    cluster.engine.run()
    got = cluster.driver(1).read_dma_buffer(0, total)
    assert np.array_equal(got, np.concatenate(rng_bytes))
