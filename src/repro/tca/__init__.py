"""The TCA layer: address map, topologies, sub-cluster assembly, comm API.

This is the paper's contribution proper: a sub-cluster of 8-16 nodes whose
PEACH2 boards extend the PCIe address domain across nodes (§II-B, §III-E),
plus the CUDA-like communication interface of §III-H.
"""

from repro.tca.address_map import TCAAddressMap, BLOCK_GPU0, BLOCK_GPU1, \
    BLOCK_HOST, BLOCK_INTERNAL
from repro.tca.topology import dual_ring_route_entries, ring_hop_count
from repro.tca.subcluster import TCASubCluster
from repro.tca.comm import TCAComm
from repro.tca.hybrid import HybridCluster, HybridComm

__all__ = [
    "TCAAddressMap",
    "BLOCK_GPU0",
    "BLOCK_GPU1",
    "BLOCK_HOST",
    "BLOCK_INTERNAL",
    "dual_ring_route_entries",
    "ring_hop_count",
    "TCASubCluster",
    "TCAComm",
    "HybridCluster",
    "HybridComm",
]
