"""Comparators: InfiniBand verbs, MPI, host-staged GPU paths, NTB.

These implement the communication stacks the paper positions TCA against
(§I, §V): the conventional three-copy GPU-to-GPU path over MPI+InfiniBand,
the IB + GPUDirect-RDMA zero-copy path, and the PCIe non-transparent
bridge approach.
"""

from repro.baselines.ib import IBHca, IBLink, IBParams, IBSwitch
from repro.baselines.mpi import MPIEndpoint, MPIParams, MPIWorld
from repro.baselines.paths import (ConventionalPath, GDRPath, MPIHostPath,
                                   PathResult, TCADMAPath, TCAPIOPath,
                                   VerbsPath)
from repro.baselines.ntb import NTBBridge, NTBPair

__all__ = [
    "IBHca",
    "IBLink",
    "IBParams",
    "IBSwitch",
    "MPIEndpoint",
    "MPIParams",
    "MPIWorld",
    "ConventionalPath",
    "GDRPath",
    "MPIHostPath",
    "VerbsPath",
    "TCADMAPath",
    "TCAPIOPath",
    "PathResult",
    "NTBBridge",
    "NTBPair",
]
