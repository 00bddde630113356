"""Tier-1 anchor regressions: the headline paper numbers stay pinned.

These re-measure the E3/E4/E7/E8 canonical anchors against the
machine-checked table in :mod:`repro.model.anchors`, so a calibration
regression fails the fast unit suite — not just the nightly
``tca-bench suite``.  Only the anchor cells are measured (reduced
sweeps), which keeps this affordable for tier-1.
"""

import pytest

from repro.bench import experiments
from repro.bench.experiments import REGISTRY
from repro.model.anchors import (ANCHORS, Anchor, anchor, anchors_for,
                                 calibration_fingerprint)
from repro.units import KiB


def assert_all_pass(experiment: str, payload) -> None:
    checks = [a.check(payload) for a in anchors_for(experiment)]
    assert checks, f"no anchors read {experiment!r}"
    failed = [str(c) for c in checks if c.status != "pass"]
    assert not failed, "\n".join(failed)


class TestHeadlineAnchors:
    def test_e3_theory(self):
        assert_all_pass("theory", experiments.theory())

    def test_e4_fig7_anchor_cells(self):
        # The smoke sweep keeps exactly the cells the anchors read.
        payload = experiments.fig7(**REGISTRY["fig7"].params_for("smoke"))
        assert_all_pass("fig7", payload.to_dict())

    def test_e7_limits(self):
        assert_all_pass("limits", experiments.limits())

    def test_e8_latency(self):
        assert_all_pass("latency", experiments.latency())


class TestAnchorTable:
    def test_names_unique(self):
        names = [a.name for a in ANCHORS]
        assert len(names) == len(set(names))

    def test_every_anchor_reads_a_registry_entry(self):
        for a in ANCHORS:
            assert a.experiment in REGISTRY, a.name

    def test_every_experiment_id_is_anchored(self):
        anchored = {REGISTRY[a.experiment].eid for a in ANCHORS}
        expected = {spec.eid for spec in REGISTRY.values()}
        assert anchored == expected

    def test_cmp_modes_are_known(self):
        assert {a.cmp for a in ANCHORS} <= {"near", "le", "ge", "truthy"}

    def test_lookup(self):
        assert anchor("latency-pio-one-way").paper == 782.0
        with pytest.raises(KeyError):
            anchor("no-such-anchor")

    def test_check_outcomes(self):
        from repro.model.anchors import scalar

        a = Anchor("t", "latency", "d", lambda p: scalar(p, "v"),
                   100.0, 0.01)
        good, bad = a.check({"v": 100.5}), a.check({"v": 150.0})
        assert good.status == "pass" and bad.status == "fail"
        assert str(good).startswith("[ok ] t: ")
        assert str(bad).startswith("[FAIL] t: ")
        skipped = a.check({"other": 1})
        assert skipped.status == "skipped" and skipped.ok

    def test_check_to_dict_roundtrips(self):
        check = anchor("latency-pio-one-way").check({"pio_one_way_ns": 782.0})
        doc = check.to_dict()
        assert doc["status"] == "pass" and doc["paper"] == 782.0
        assert doc["experiment"] == "latency"


class TestCalibrationFingerprint:
    def test_stable_for_same_constants(self):
        assert calibration_fingerprint() == calibration_fingerprint()

    def test_covers_every_field(self):
        from dataclasses import fields, replace

        from repro.model.calibration import CALIB, Calibration

        base = calibration_fingerprint(CALIB)
        for f in fields(Calibration):
            bumped = replace(CALIB, **{f.name: getattr(CALIB, f.name) + 1})
            assert calibration_fingerprint(bumped) != base, f.name
