"""Regression: instrumentation must not change any experiment number.

Tracing and metrics are passive — they schedule no engine events — so an
instrumented run must report *identical* picosecond results to a bare
run.  These tests pin that on real Fig. 7/8 measurement cells and on the
Fig. 10 PIO path.

The same contract covers the fault-injection hooks: an armed plan that
injects nothing (the ``none`` preset) must leave every number
picosecond-identical, because the whole disabled/quiet path is identity
checks on ``engine.faults`` and RNG draws that never happen.
"""

import pytest

from repro.bench.harness import SingleNodeRig
from repro.bench.loopback import LoopbackRig
from repro.faults import FaultPlan, FaultSession
from repro.obs import Observability
from repro.sim.core import Engine


def _cell(op: str, target: str, size: int, instrumented: bool) -> int:
    obs = Observability()
    if instrumented:
        with obs.session():
            rig = SingleNodeRig()
    else:
        rig = SingleNodeRig()
    elapsed, _ = rig.measure(op, target, size, count=32)
    if instrumented:
        assert obs.total_records > 0, "instrumented run traced nothing"
    return elapsed


@pytest.mark.parametrize("op,target,size", [
    ("write", "cpu", 256),    # Fig. 7 small-message cell
    ("write", "gpu", 4096),   # Fig. 8 peak cell
    ("read", "cpu", 1024),    # Fig. 7 read curve
])
def test_instrumented_cells_are_cycle_exact(op, target, size):
    assert _cell(op, target, size, False) == _cell(op, target, size, True)


def test_instrumented_pio_latency_is_cycle_exact():
    bare = LoopbackRig().pio_commit_latency_ns()
    obs = Observability()
    with obs.session():
        rig = LoopbackRig()
    assert rig.pio_commit_latency_ns() == bare


@pytest.mark.parametrize("op,target,size", [
    ("write", "cpu", 256),
    ("write", "gpu", 4096),
    ("read", "cpu", 1024),
])
def test_armed_empty_fault_plan_is_cycle_exact(op, target, size):
    bare_rig = SingleNodeRig()
    bare, _ = bare_rig.measure(op, target, size, count=32)
    session = FaultSession(FaultPlan.preset("none"))
    with session.session():
        rig = SingleNodeRig()
    armed, _ = rig.measure(op, target, size, count=32)
    assert session.armed, "fault session armed no engine"
    assert not any(injector.counters for _, injector in session.armed)
    assert armed == bare


def test_armed_empty_fault_plan_pio_is_cycle_exact():
    bare = LoopbackRig().pio_commit_latency_ns()
    session = FaultSession(FaultPlan.preset("none"))
    with session.session():
        rig = LoopbackRig()
    assert rig.pio_commit_latency_ns() == bare


def test_registry_swap_rebinds_handles_cycle_exact():
    # Components cache per-registry instrument handles; swapping in a
    # fresh registry mid-life must rebind transparently and leave the
    # measurement picosecond-identical.
    control = SingleNodeRig()
    control.measure("write", "cpu", 256, count=32)
    second_bare, _ = control.measure("write", "cpu", 1024, count=32)

    obs_a = Observability()
    with obs_a.session():
        rig = SingleNodeRig()
    rig.measure("write", "cpu", 256, count=32)
    obs_b = Observability()
    obs_b.attach(rig.engine, label="second-registry")
    second_swapped, _ = rig.measure("write", "cpu", 1024, count=32)
    assert second_swapped == second_bare
    # Both registries hold real samples: the rebind actually happened.
    reg_a = obs_a.registry_for(rig.engine)
    reg_b = obs_b.registry_for(rig.engine)
    assert any(n.startswith("link.") for n in reg_a.names())
    assert any(n.startswith("link.") for n in reg_b.names())


def test_attach_only_sets_attributes():
    engine = Engine()
    before = engine.now_ps
    Observability().attach(engine, label="probe")
    assert engine.tracer is not None and engine.metrics is not None
    assert engine.now_ps == before
    engine.run()  # nothing scheduled by attaching
    assert engine.now_ps == before
