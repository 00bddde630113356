"""Arm a fault plan on every engine an experiment builds.

Mirrors :class:`repro.obs.Observability`'s session mechanism: the bench
rigs construct their own engines internally, so ``tca-bench <exp>
--fault-plan flaky-links:7`` needs a way to reach engines it never sees.
A :class:`FaultSession` registers an engine observer that arms a *fresh*
injector per engine — each one seeded deterministically from the plan
seed and the engine's ordinal, so multi-engine runs stay reproducible
while different rigs draw independent fault sequences.
"""

from __future__ import annotations

import contextlib
from typing import List, Tuple

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.sim.core import (Engine, register_engine_observer,
                            unregister_engine_observer)


class FaultSession:
    """Per-engine fault injectors over a whole experiment run."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        #: (engine, injector) per armed engine, in construction order.
        self.armed: List[Tuple[Engine, FaultInjector]] = []

    def _arm(self, engine: Engine) -> None:
        injector = FaultInjector(
            self.plan.with_seed(self.plan.seed + len(self.armed)))
        injector.arm(engine)
        self.armed.append((engine, injector))

    @contextlib.contextmanager
    def session(self):
        """Arm every :class:`Engine` constructed inside the block."""
        register_engine_observer(self._arm)
        try:
            yield self
        finally:
            unregister_engine_observer(self._arm)
            self.flush_metrics()

    # -- accounting ----------------------------------------------------------

    def flush_metrics(self) -> None:
        """Mirror each injector's counters into its engine's registry."""
        for engine, injector in self.armed:
            injector.flush_metrics(engine.metrics)

    def summary(self) -> str:
        """Aggregate one-line summary across engines."""
        totals: dict = {}
        for _, injector in self.armed:
            for key, value in injector.counters.items():
                totals[key] = totals.get(key, 0) + value
        detail = (", ".join(f"{k}={v}" for k, v in sorted(totals.items()))
                  or "no faults injected")
        return (f"fault plan {self.plan.name!r} (seed {self.plan.seed}) "
                f"over {len(self.armed)} engine(s): {detail}")
