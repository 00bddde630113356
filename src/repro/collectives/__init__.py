"""TCA-native collectives over a sub-cluster (§I, §III-H, §V).

The paper's motivating claim is that once remote GPU/host memory is just
addresses in the extended PCIe space, sub-cluster collectives stop being
an MPI software-stack problem: a collective is a schedule of RDMA puts
plus flag stores whose ordering PCIe itself guarantees.  This package is
that claim made executable:

* :class:`ChannelScheduler` — per-node arbitration of PEACH2's DMA
  channels: chained-DMA puts are submitted asynchronously and overlap
  across channels (and, on a :data:`~repro.tca.subcluster.DUAL_RING`
  sub-cluster, across both rings);
* :class:`TCACollectives` — ring **allgather**, **allreduce**,
  **broadcast** and **barrier**; allreduce has a hierarchical variant
  that exploits the S-coupled dual-ring topology (§III-D) and a
  per-dimension one for tori;
* module-level one-shot helpers (:func:`ring_allreduce`,
  :func:`ring_broadcast`, :func:`ring_barrier`, :func:`ring_allgather`)
  that build a context, run one self-checking collective, and return the
  verified buffers.

E18 (``tca-bench collectives``) and the E20/E21 experiments
(``tca-bench collective-allreduce`` / ``collective-dual-ring``) race
this layer against the MPI baselines in
:mod:`repro.baselines.collectives`.  See ``docs/collectives.md``.
"""

from repro.collectives.channels import ChannelScheduler
from repro.collectives.ring import (TCACollectives, ring_allgather,
                                    ring_allreduce, ring_barrier,
                                    ring_broadcast)

__all__ = [
    "ChannelScheduler",
    "TCACollectives",
    "ring_allgather",
    "ring_allreduce",
    "ring_barrier",
    "ring_broadcast",
]
