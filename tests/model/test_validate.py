"""Tests for ``tca-bench validate``, the calibration self-check.

``validate`` checks the anchor-table rows of the latency, Fig. 7 and
Fig. 9 experiments against their smoke payloads, and fails the command
when any of them does not pass.
"""

import dataclasses
import json

from repro.bench import suite
from repro.bench.cli import VALIDATED, main
from repro.model.anchors import ANCHORS, Anchor, scalar

VALIDATED_ANCHORS = [a.name for a in ANCHORS if a.experiment in VALIDATED]


def test_anchor_result_tolerance():
    a = Anchor("x", "latency", "d", lambda p: scalar(p, "v"), 100.0, 0.02)
    good, bad = a.check({"v": 101.0}), a.check({"v": 110.0})
    assert good.ok and not bad.ok
    assert "ok " in str(good) and "FAIL" in str(bad)


def test_all_anchors_pass(capsys):
    assert main(["validate", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)["validate"]
    assert doc["total"] == doc["passed"] == len(VALIDATED_ANCHORS) == 10
    assert [a["name"] for a in doc["anchors"]] == VALIDATED_ANCHORS
    assert {a["status"] for a in doc["anchors"]} == {"pass"}


def test_render_mentions_every_anchor(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "10/10 anchors within tolerance" in out
    assert "[ok ] latency-pio-one-way: paper=782 measured=782" in out
    for name in VALIDATED_ANCHORS:
        assert f"[ok ] {name}: " in out


def test_failing_anchor_exits_1_and_is_named(capsys, monkeypatch):
    broken = [dataclasses.replace(a, paper=a.paper * 2)
              if a.name == "fig9-four-request-fraction" else a
              for a in ANCHORS]
    monkeypatch.setattr(suite, "ANCHORS", broken)
    assert main(["validate"]) == 1
    captured = capsys.readouterr()
    assert "[FAIL] fig9-four-request-fraction: " in captured.out
    assert "9/10 anchors within tolerance" in captured.out
    assert captured.err == ("error: validate: anchor "
                            "fig9-four-request-fraction did not pass\n")
