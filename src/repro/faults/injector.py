"""The fault injector: executes one :class:`FaultPlan` on one engine.

The injector is the single object hardware models consult at their fault
points, through ``engine.faults`` — an attribute that is ``None`` by
default, exactly like ``engine.tracer``/``engine.metrics``, so the whole
disabled-path cost is one identity check and un-faulted runs stay
picosecond-identical.

Hook points (the callee names the component; the injector matches it
against the plan's ``fnmatch`` targets):

* ``link_verdict(name)`` — per serialized TLP on a link direction;
  returns ``"ok"``, ``"corrupt"`` (NAK + replay) or ``"drop"``
  (replay-timer retransmission).
* ``switch_drop(name)`` — per forwarded packet in a host switch.
* ``doorbell_stuck(chip, channel)`` — per doorbell register write.
* ``drop_interrupt(chip, vector)`` — per completion MSI raised.
* ``descriptor_fetch_error(chip, channel)`` — per descriptor-table
  fetch issued by the DMAC.
* ``register_link(link)`` — called by :class:`~repro.pcie.link.PCIeLink`
  at construction so :class:`LinkFlap` events can be scheduled; links
  built before :meth:`arm` are registered by :meth:`attach_cluster` or
  an explicit call.

Every injected fault increments a counter; :meth:`flush_metrics` mirrors
the totals into a metrics registry as ``faults.*`` counters so degraded
runs are machine-distinguishable from healthy ones.
"""

from __future__ import annotations

from fnmatch import fnmatch
import random
from typing import Dict, List

from repro.errors import FaultError
from repro.faults.plan import (DescriptorFetchError, FaultPlan, LinkFlap,
                               LostInterrupt, StuckDoorbell, SwitchDrop,
                               TLPCorrupt, TLPDrop)

VERDICT_OK = "ok"
VERDICT_CORRUPT = "corrupt"
VERDICT_DROP = "drop"


class FaultInjector:
    """Executes one plan's faults against one engine's components."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.engine = None
        self.counters: Dict[str, int] = {}
        self._links: Dict[str, object] = {}
        self._corrupts: List[TLPCorrupt] = []
        self._drops: List[TLPDrop] = []
        self._switch_drops: List[SwitchDrop] = []
        self._flaps: List[LinkFlap] = []
        # Occurrence counters for nth-based faults, keyed by fault object.
        self._occurrences: Dict[int, int] = {}
        self._ordinals: List[object] = []
        for fault in plan.faults:
            if isinstance(fault, TLPCorrupt):
                self._corrupts.append(fault)
            elif isinstance(fault, TLPDrop):
                self._drops.append(fault)
            elif isinstance(fault, SwitchDrop):
                self._switch_drops.append(fault)
            elif isinstance(fault, LinkFlap):
                self._flaps.append(fault)
            else:
                self._ordinals.append(fault)

    # -- wiring --------------------------------------------------------------

    def arm(self, engine) -> "FaultInjector":
        """Install on ``engine`` (sets ``engine.faults``) and return self."""
        if self.engine is not None and self.engine is not engine:
            raise FaultError("injector is already armed on another engine")
        self.engine = engine
        engine.faults = self
        return self

    def register_link(self, link) -> None:
        """Track a link and schedule any flap whose target matches it."""
        if link.name in self._links:
            return
        self._links[link.name] = link
        for flap in self._flaps:
            if fnmatch(link.name, flap.target):
                self._schedule_flap(link, flap)

    def attach_cluster(self, cluster) -> None:
        """Register every link of an already-built sub-cluster.

        Needed when the cluster was constructed before :meth:`arm`;
        links built after arming self-register.
        """
        for _, _, _, link in cluster._fabric_cables:
            self.register_link(link)

    def _schedule_flap(self, link, flap: LinkFlap) -> None:
        down_at = max(self.engine.now_ps, flap.down_at_ps)

        def cut() -> None:
            if link.up:
                link.take_down()
                self.count("link_flaps")
                if self.engine.tracer is not None:
                    self.engine.trace("faults", "link-cut", link.name)

        self.engine.at(down_at, cut)
        if flap.up_at_ps is not None:
            self.engine.at(max(down_at + 1, flap.up_at_ps), link.bring_up)

    # -- hook queries --------------------------------------------------------

    def link_verdict(self, link_name: str) -> str:
        """Fate of one TLP leaving serialization on ``link_name``."""
        now = self.engine.now_ps
        for fault in self._corrupts:
            if fault.in_window(now) and fnmatch(link_name, fault.target):
                if self.rng.random() < fault.probability:
                    self.count("tlps_corrupted")
                    return VERDICT_CORRUPT
        for fault in self._drops:
            if fault.in_window(now) and fnmatch(link_name, fault.target):
                if self.rng.random() < fault.probability:
                    self.count("tlps_dropped_wire")
                    return VERDICT_DROP
        return VERDICT_OK

    def switch_drop(self, switch_name: str) -> bool:
        """True when a host switch loses this forwarded packet."""
        now = self.engine.now_ps
        for fault in self._switch_drops:
            if fault.in_window(now) and fnmatch(switch_name, fault.target):
                if self.rng.random() < fault.probability:
                    self.count("tlps_dropped_switch")
                    return True
        return False

    def _nth_hit(self, fault, key: str) -> bool:
        seen = self._occurrences.get(id(fault), 0) + 1
        self._occurrences[id(fault)] = seen
        if seen == fault.nth:
            self.count(key)
            return True
        return False

    def doorbell_stuck(self, chip_name: str, channel: int) -> bool:
        """True when this doorbell write must be swallowed."""
        for fault in self._ordinals:
            if (isinstance(fault, StuckDoorbell)
                    and fnmatch(chip_name, fault.chip)
                    and (fault.channel is None or fault.channel == channel)):
                if self._nth_hit(fault, "doorbells_stuck"):
                    return True
        return False

    def drop_interrupt(self, chip_name: str, vector: int) -> bool:
        """True when this completion MSI must be swallowed."""
        for fault in self._ordinals:
            if (isinstance(fault, LostInterrupt)
                    and fnmatch(chip_name, fault.chip)):
                if self._nth_hit(fault, "interrupts_lost"):
                    return True
        return False

    def descriptor_fetch_error(self, chip_name: str, channel: int) -> bool:
        """True when this descriptor fetch must return garbage."""
        for fault in self._ordinals:
            if (isinstance(fault, DescriptorFetchError)
                    and fnmatch(chip_name, fault.chip)):
                if self._nth_hit(fault, "descriptor_fetch_errors"):
                    return True
        return False

    # -- accounting ----------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        """Record ``n`` injected faults of one kind."""
        self.counters[key] = self.counters.get(key, 0) + n

    def flush_metrics(self, registry=None) -> None:
        """Mirror the counters into a metrics registry as ``faults.*``.

        Uses the armed engine's registry when none is given; a no-op
        when neither exists.  Also writes ``faults.plan_armed`` so a
        metrics document always reveals that a fault plan was active.
        """
        registry = registry or (self.engine.metrics if self.engine else None)
        if registry is None:
            return
        registry.counter("faults.plan_armed").inc()
        for key, value in sorted(self.counters.items()):
            registry.counter(f"faults.{key}").inc(value)

    def summary(self) -> str:
        """One-line human summary of what was injected."""
        if not self.counters:
            return (f"fault plan {self.plan.name!r} (seed {self.plan.seed}): "
                    "no faults injected")
        parts = ", ".join(f"{k}={v}" for k, v in sorted(self.counters.items()))
        return (f"fault plan {self.plan.name!r} (seed {self.plan.seed}): "
                f"{parts}")
