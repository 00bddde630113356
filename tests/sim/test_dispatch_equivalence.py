"""Differential dispatch testing: fast engine vs the reference heap.

The engine ships two dispatch implementations (see ``repro.sim.core``):

* ``"reference"`` — a pure ``(time, sequence)`` heap, simple enough to
  audit by eye.  It is the semantic oracle.
* ``"fast"`` — the production path: the ready-deque now-bucket for
  ``call_soon``.

The optimizations are only admissible because they are *observably
identical*: every suite entry (the full E1-E23 registry) must produce
byte-identical canonical payloads under both modes.  This file holds
that contract directly — it is the test the perf work in PR 9 rides on.
"""

from __future__ import annotations

import pytest

from repro.bench.suite import REGISTRY, run_entry
from repro.sim.core import DISPATCH_MODES, Engine, dispatch_mode

ENTRIES = sorted(REGISTRY)


class TestRegistryEquivalence:
    """Every registry entry, reference vs fast, byte for byte."""

    @pytest.mark.parametrize("name", ENTRIES)
    def test_payload_identical_across_dispatch(self, name):
        with dispatch_mode("reference"):
            reference_payload, _ = run_entry(name, "tiny", 0)
        with dispatch_mode("fast"):
            fast_payload, _ = run_entry(name, "tiny", 0)
        assert fast_payload == reference_payload

    def test_registry_covers_all_experiments(self):
        # The differential net is only as wide as the registry: make the
        # suite's experiment index explicit so a new entry cannot dodge it.
        eids = {spec.eid for spec in REGISTRY.values()}
        assert eids == {f"E{i}" for i in range(1, 24)}


class TestEngineLevelEquivalence:
    """Same program, both engines: clock, event count and order agree."""

    @staticmethod
    def _program(engine):
        log = []

        def worker(wid, period_ps, beats):
            for beat in range(beats):
                yield period_ps
                log.append((engine.now_ps, wid, beat))

        def canceller():
            timer = engine.after(500, log.append, (engine.now_ps, "late", 0))
            yield 100
            engine.cancel_event(timer)
            sig = engine.signal("handoff")
            engine.after(50, sig.fire, "token")
            value = yield sig
            log.append((engine.now_ps, "sig", value))

        for wid, period in enumerate((7, 13, 7)):
            engine.process(worker(wid, period, 40), name=f"w{wid}")
        engine.process(canceller(), name="c")
        engine.run()
        return engine.now_ps, engine.events_processed, log

    def test_mixed_program_matches_reference(self):
        results = {}
        for mode in DISPATCH_MODES:
            results[mode] = self._program(Engine(dispatch=mode))
        assert results["fast"] == results["reference"]

    def test_dispatch_mode_context_restores_default(self):
        before = Engine().dispatch
        with dispatch_mode("reference"):
            assert Engine().dispatch == "reference"
        assert Engine().dispatch == before

