"""Deterministic discrete-event simulation kernel.

Everything in the reproduction — PCIe links, DMA engines, the PEACH2
crossbar, InfiniBand baselines — runs on this kernel.  Time is integer
picoseconds; events with equal timestamps fire in scheduling order, so a
simulation is a pure function of its inputs (bit-reproducible runs).

The programming model is a small subset of the SimPy idea: a *process* is a
Python generator that yields an ``int`` delay in picoseconds, a
:class:`Signal` or another :class:`Process` and is resumed by the
:class:`Engine` when the awaited thing happens.
"""

from repro.sim.core import Engine, Process, Signal
from repro.sim.queues import Latch, Resource, Store
from repro.sim.trace import Tracer

__all__ = [
    "Engine",
    "Process",
    "Signal",
    "Latch",
    "Resource",
    "Store",
    "Tracer",
]
