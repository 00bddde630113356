"""Drift guard: EXPERIMENTS.md, DESIGN.md and the registry stay in sync.

Every ``python -m repro.bench <id>`` command the documentation names
must resolve to a registry entry, every registry entry must be
documented, every experiment id must have its DESIGN.md rows, and every
table the suite can regenerate must have its marker block — so docs
drift fails tier-1 instead of rotting quietly.
"""

import re
from pathlib import Path

from repro.bench.experiments import EXPERIMENT_IDS, REGISTRY
from repro.bench.suite import MD_RENDERERS

DOC = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"
DESIGN = Path(__file__).resolve().parents[2] / "DESIGN.md"
COMMAND = re.compile(r"python -m repro\.bench ([a-z0-9][a-z0-9-]*)")
UTILITY = {"validate", "perf", "suite", "all"}


def documented_names():
    return set(COMMAND.findall(DOC.read_text(encoding="utf-8")))


def test_every_documented_command_resolves():
    unknown = documented_names() - set(REGISTRY) - UTILITY
    assert not unknown, f"EXPERIMENTS.md names unknown experiments: {unknown}"


def test_every_registry_entry_is_documented():
    missing = set(REGISTRY) - documented_names()
    assert not missing, f"registry entries missing from EXPERIMENTS.md: " \
                        f"{sorted(missing)}"


def test_every_experiment_id_has_design_rows():
    # One row in the headline-results table, one in the per-experiment
    # index.
    rows = re.findall(r"^\| (E\d+) \|", DESIGN.read_text(encoding="utf-8"),
                      re.MULTILINE)
    missing = [eid for eid in EXPERIMENT_IDS if rows.count(eid) < 2]
    assert not missing, f"experiment ids missing from DESIGN.md: {missing}"


def test_registry_covers_e1_to_e23():
    assert list(EXPERIMENT_IDS) == [f"E{i}" for i in range(1, 24)]


def test_every_renderer_has_marker_block():
    text = DOC.read_text(encoding="utf-8")
    for name in MD_RENDERERS:
        assert f"<!-- suite:{name} -->" in text, name
        assert f"<!-- /suite:{name} -->" in text, name


def test_every_renderer_targets_a_registry_entry():
    assert set(MD_RENDERERS) <= set(REGISTRY)
