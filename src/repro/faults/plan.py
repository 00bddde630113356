"""Deterministic, seeded fault plans.

A :class:`FaultPlan` is a static description of *what goes wrong and
when*: every fault kind is a frozen dataclass naming its target (a
``fnmatch`` pattern over component names), its trigger (an absolute
simulated time, a probability window, or an occurrence ordinal), and
nothing else.  All randomness comes from one ``random.Random(seed)``
owned by the :class:`~repro.faults.injector.FaultInjector` that executes
the plan, and the discrete-event engine is itself deterministic, so the
same plan over the same workload reproduces the same fault sequence
bit-for-bit — the property every chaos test leans on.

Fault kinds (mirroring what the APEnet+/PEARL literature treats as
first-class link errors):

* :class:`LinkFlap` — a cable goes down at ``down_at_ps`` (and,
  optionally, comes back at ``up_at_ps``); permanent when ``up_at_ps``
  is ``None``.  This is §III-A's PEARL failure case.
* :class:`TLPCorrupt` — with probability ``probability`` a transmitted
  TLP arrives with a bad LCRC inside the window; the receiver NAKs it
  and the transmitter replays it (real latency cost, no data loss).
* :class:`TLPDrop` — the TLP vanishes on the wire; the transmitter's
  replay timer expires and retransmits.
* :class:`SwitchDrop` — a host switch silently loses a forwarded packet
  (no DLL protection inside the switch model; recovery is end to end).
* :class:`DescriptorFetchError` — the ``nth`` descriptor-table fetch of
  a matching chip returns garbage; the DMAC discards it and refetches.
* :class:`LostInterrupt` — the ``nth`` completion MSI a matching chip
  raises is swallowed before reaching the CPU.
* :class:`StuckDoorbell` — the ``nth`` doorbell register write to a
  matching chip/channel is ignored by the hardware.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.errors import FaultError


@dataclass(frozen=True)
class LinkFlap:
    """Take a matching link down at ``down_at_ps`` (back up at ``up_at_ps``)."""

    target: str
    down_at_ps: int
    up_at_ps: Optional[int] = None

    def __post_init__(self) -> None:
        if self.down_at_ps < 0:
            raise FaultError("down_at_ps must be non-negative")
        if self.up_at_ps is not None and self.up_at_ps <= self.down_at_ps:
            raise FaultError("up_at_ps must follow down_at_ps")


@dataclass(frozen=True)
class _WindowedProbability:
    """Base for per-event probabilistic faults over a time window."""

    target: str = "*"
    probability: float = 0.01
    start_ps: int = 0
    end_ps: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise FaultError(f"probability {self.probability} not in [0, 1]")
        if self.end_ps is not None and self.end_ps <= self.start_ps:
            raise FaultError("fault window must end after it starts")

    def in_window(self, now_ps: int) -> bool:
        """True while the fault is active at ``now_ps``."""
        if now_ps < self.start_ps:
            return False
        return self.end_ps is None or now_ps < self.end_ps


@dataclass(frozen=True)
class TLPCorrupt(_WindowedProbability):
    """Wire corruption: bad LCRC at the receiver -> NAK -> replay."""


@dataclass(frozen=True)
class TLPDrop(_WindowedProbability):
    """Wire loss: no ACK ever arrives -> replay-timer retransmission."""


@dataclass(frozen=True)
class SwitchDrop(_WindowedProbability):
    """A host-switch forwarding slot silently loses the packet."""


@dataclass(frozen=True)
class DescriptorFetchError:
    """The ``nth`` descriptor fetch by a matching chip returns garbage."""

    chip: str = "*"
    nth: int = 1

    def __post_init__(self) -> None:
        if self.nth < 1:
            raise FaultError("nth is 1-based")


@dataclass(frozen=True)
class LostInterrupt:
    """The ``nth`` completion MSI raised by a matching chip is swallowed."""

    chip: str = "*"
    nth: int = 1

    def __post_init__(self) -> None:
        if self.nth < 1:
            raise FaultError("nth is 1-based")


@dataclass(frozen=True)
class StuckDoorbell:
    """The ``nth`` doorbell write to a matching chip/channel is ignored."""

    chip: str = "*"
    channel: Optional[int] = None
    nth: int = 1

    def __post_init__(self) -> None:
        if self.nth < 1:
            raise FaultError("nth is 1-based")


Fault = Union[LinkFlap, TLPCorrupt, TLPDrop, SwitchDrop,
              DescriptorFetchError, LostInterrupt, StuckDoorbell]

_KINDS = {
    "link-flap": LinkFlap,
    "tlp-corrupt": TLPCorrupt,
    "tlp-drop": TLPDrop,
    "switch-drop": SwitchDrop,
    "descriptor-fetch-error": DescriptorFetchError,
    "lost-interrupt": LostInterrupt,
    "stuck-doorbell": StuckDoorbell,
}


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded collection of faults to execute together."""

    seed: int = 0
    faults: Tuple[Fault, ...] = ()
    name: str = "custom"

    def with_seed(self, seed: int) -> "FaultPlan":
        """The same faults under a different RNG seed."""
        return FaultPlan(seed=seed, faults=self.faults, name=self.name)

    @property
    def empty(self) -> bool:
        """True when the plan injects nothing (a control plan)."""
        return not self.faults

    # -- construction from CLI specs / JSON ---------------------------------

    @staticmethod
    def preset(name: str, seed: int = 0) -> "FaultPlan":
        """A built-in plan by name (see ``tca-bench --fault-plan``)."""
        if name not in PRESETS:
            raise FaultError(
                f"unknown fault preset {name!r}; choose from "
                f"{', '.join(sorted(PRESETS))}")
        return PRESETS[name].with_seed(seed)

    @staticmethod
    def parse(spec: str) -> "FaultPlan":
        """Parse a CLI spec: ``preset[:seed]`` or a JSON file path.

        The JSON form is ``{"seed": N, "faults": [{"kind": "tlp-corrupt",
        ...fields...}, ...]}`` with kinds named like the CLI presets.
        """
        if spec.endswith(".json"):
            try:
                with open(spec, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise FaultError(f"cannot load fault plan {spec!r}: {exc}")
            return FaultPlan.from_dict(doc, name=spec)
        name, _, seed_text = spec.partition(":")
        seed = 0
        if seed_text:
            try:
                seed = int(seed_text)
            except ValueError:
                raise FaultError(f"bad fault-plan seed {seed_text!r}")
        return FaultPlan.preset(name, seed)

    @staticmethod
    def from_dict(doc: dict, name: str = "custom") -> "FaultPlan":
        """Build a plan from its JSON document form."""
        faults = []
        for entry in doc.get("faults", []):
            entry = dict(entry)
            kind = entry.pop("kind", None)
            cls = _KINDS.get(kind)
            if cls is None:
                raise FaultError(
                    f"unknown fault kind {kind!r}; choose from "
                    f"{', '.join(sorted(_KINDS))}")
            try:
                faults.append(cls(**entry))
            except TypeError as exc:
                raise FaultError(f"bad {kind!r} fault: {exc}")
        return FaultPlan(seed=int(doc.get("seed", 0)), faults=tuple(faults),
                         name=doc.get("name", name))


#: Built-in plans for ``tca-bench --fault-plan NAME[:SEED]``.
PRESETS = {
    # A control plan: hooks armed, nothing injected.  Runs must be
    # picosecond-identical to unhooked runs (pinned by tests/obs).
    "none": FaultPlan(name="none"),
    # Marginal cables: 1 % corrupted TLPs and 0.2 % lost TLPs everywhere.
    "flaky-links": FaultPlan(name="flaky-links", faults=(
        TLPCorrupt(probability=0.01),
        TLPDrop(probability=0.002),
    )),
    # One swallowed completion interrupt per chip (driver must recover).
    "lost-irq": FaultPlan(name="lost-irq", faults=(
        LostInterrupt(nth=1),
    )),
    # Everything at once: marginal links, a lost IRQ, a stuck doorbell
    # and a corrupted descriptor fetch.
    "chaos": FaultPlan(name="chaos", faults=(
        TLPCorrupt(probability=0.01),
        TLPDrop(probability=0.002),
        LostInterrupt(nth=1),
        StuckDoorbell(nth=1),
        DescriptorFetchError(nth=1),
    )),
}
