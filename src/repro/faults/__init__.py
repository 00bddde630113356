"""Deterministic fault injection with PCIe replay semantics.

The package splits into:

* :mod:`repro.faults.plan` — seeded, declarative fault plans (what goes
  wrong and when);
* :mod:`repro.faults.injector` — the per-engine executor behind the
  ``engine.faults`` hook;
* :mod:`repro.faults.session` — arm a plan on every engine an experiment
  builds (the ``tca-bench --fault-plan`` mechanism);
* :mod:`repro.faults.chaos` — workloads under randomized faults with
  end-to-end delivery and byte-exactness checks;
* :mod:`repro.faults.harness_chaos` — process-level chaos against the
  *suite harness itself* (SIGKILLed workers, hung entries, corrupted
  cache files, mid-run kills + resume), asserting byte-identical
  output.  It runs the suite, so this package does not import it:
  ``python -m repro.faults.harness_chaos`` then loads it once, and
  ``import repro.faults`` stays clear of :mod:`repro.bench`.

See ``docs/robustness.md`` for the fault model and the recovery state
machine.
"""

from repro.faults.chaos import ChaosReport, run_chaos
from repro.faults.injector import (FaultInjector, VERDICT_CORRUPT,
                                   VERDICT_DROP, VERDICT_OK)
from repro.faults.plan import (DescriptorFetchError, Fault, FaultPlan,
                               LinkFlap, LostInterrupt, PRESETS,
                               StuckDoorbell, SwitchDrop, TLPCorrupt,
                               TLPDrop)
from repro.faults.session import FaultSession

__all__ = [
    "ChaosReport",
    "DescriptorFetchError",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "FaultSession",
    "LinkFlap",
    "LostInterrupt",
    "PRESETS",
    "StuckDoorbell",
    "SwitchDrop",
    "TLPCorrupt",
    "TLPDrop",
    "VERDICT_CORRUPT",
    "VERDICT_DROP",
    "VERDICT_OK",
    "run_chaos",
]
