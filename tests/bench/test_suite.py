"""Determinism and cache correctness of the suite runner.

The ISSUE contract: every registry experiment run twice (and once
through the cache) produces byte-identical payloads; a cache hit must
equal a cold run.  Tiny sweeps keep this affordable for tier-1 — byte
stability does not depend on sweep size.
"""

import json

import pytest

from repro.bench.cache import ResultCache
from repro.bench.experiments import REGISTRY
from repro.bench.suite import (MD_RENDERERS, SCHEMA, SuiteReport,
                               _make_jobs, check_anchors,
                               render_experiments_md, run_suite)
from repro.errors import ConfigError

CHEAP = ["table1", "table2", "theory", "latency", "ablation-ntb"]


class TestDeterminism:
    def test_every_entry_byte_identical_and_cache_equals_cold(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = run_suite(mode="tiny", cache=cache)
        assert [e.cache for e in cold.entries] == ["miss"] * len(REGISTRY)
        assert all(e.error is None for e in cold.entries)

        # Second cold run (no cache): byte-identical payload per entry.
        rerun = run_suite(mode="tiny", cache=None)
        first = {e.name: e.payload_json for e in cold.entries}
        second = {e.name: e.payload_json for e in rerun.entries}
        assert first == second

        # Warm run: every entry a hit, byte-identical to the cold run.
        warm = run_suite(mode="tiny", cache=cache)
        assert [e.cache for e in warm.entries] == ["hit"] * len(REGISTRY)
        assert warm.payloads_json() == cold.payloads_json()
        assert cache.hits == len(REGISTRY)

    def test_force_ignores_hits_but_stays_identical(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = run_suite(names=CHEAP, mode="tiny", cache=cache)
        forced = run_suite(names=CHEAP, mode="tiny", cache=cache, force=True)
        assert [e.cache for e in forced.entries] == ["miss"] * len(CHEAP)
        assert forced.payloads_json() == cold.payloads_json()

    def test_seed_feeds_the_cache_key(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_suite(names=["latency"], mode="tiny", cache=cache, seed=0)
        other = run_suite(names=["latency"], mode="tiny", cache=cache,
                          seed=1)
        assert other.entries[0].cache == "miss"


class TestSharding:
    def test_multiprocess_shards_match_inline(self, tmp_path):
        inline = run_suite(names=CHEAP, mode="tiny", cache=None, shards=1)
        sharded = run_suite(names=CHEAP, mode="tiny", cache=None, shards=2)
        assert sharded.payloads_json() == inline.payloads_json()
        assert len(sharded.shard_walls) == 2
        covered = [n for w in sharded.shard_walls for n in w["entries"]]
        assert sorted(covered) == sorted(CHEAP)
        # Cold entries run largest cost hint first, then by name; CHEAP
        # share one cost hint, so the name breaks every tie.
        assert len({REGISTRY[n].cost_s for n in CHEAP}) == 1
        assert inline.shard_walls[0]["entries"] == sorted(CHEAP)

    def test_partition_is_deterministic_and_complete(self):
        # Every cold entry becomes exactly one job, in one order whatever
        # the order the entries were named in.
        names = list(REGISTRY)
        keys = {n: n for n in names}

        def order(entries):
            return [job.name for job in _make_jobs(
                entries, keys, mode="tiny", seed=0, max_attempts=1,
                chaos=None)]

        a = order(names)
        assert a == order(list(reversed(names)))
        assert sorted(a) == sorted(names)
        assert a == sorted(names, key=lambda n: (-REGISTRY[n].cost_s, n))


class TestReport:
    def test_schema_and_summary(self):
        report = run_suite(names=CHEAP, mode="smoke", cache=None)
        doc = report.to_dict()
        assert doc["schema"] == SCHEMA
        assert doc["summary"]["entries"] == len(CHEAP)
        assert doc["summary"]["cache_misses"] == len(CHEAP)
        assert doc["summary"]["anchors_fail"] == 0
        assert doc["summary"]["ok"] is True
        assert report.ok
        # Anchors for experiments that did not run are not reported.
        assert {a["experiment"] for a in doc["anchors"]} <= set(CHEAP)
        json.dumps(doc)  # must be JSON-serializable end to end

    def test_tiny_mode_skips_anchor_checking(self):
        report = run_suite(names=["latency"], mode="tiny", cache=None)
        assert report.checks == []

    def test_anchor_failure_flips_ok(self):
        report = run_suite(names=["latency"], mode="smoke", cache=None)
        payloads = report.payloads
        payloads["latency"]["pio_one_way_ns"] = 9999.0
        checks = check_anchors(payloads)
        assert any(c.status == "fail" for c in checks)
        report.checks = checks
        assert not report.ok

    def test_unknown_entry_rejected(self):
        with pytest.raises(ConfigError):
            run_suite(names=["not-a-thing"])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            run_suite(names=["latency"], mode="huge")

    def test_render_mentions_anchors_and_cache(self):
        report = run_suite(names=["latency"], mode="smoke", cache=None)
        text = report.render()
        assert "anchors:" in text and "cache:" in text
        assert "latency-pio-one-way" in text


class TestRenderMd:
    def test_regenerates_marked_tables(self):
        report = run_suite(names=["latency"], mode="smoke", cache=None)
        doc = ("# X\n<!-- suite:latency -->\nstale\n"
               "<!-- /suite:latency -->\ntail\n")
        text, updated = render_experiments_md(report.payloads, doc)
        assert updated == ["latency"]
        assert "stale" not in text
        assert "**782.0 ns**" in text
        assert text.endswith("tail\n")

    @pytest.mark.parametrize("name", [n for n, r in MD_RENDERERS.items()
                                      if not callable(r)])
    def test_declarative_tables_fill_every_column(self, name):
        spec = MD_RENDERERS[name]
        series = {label: [[64, 1.5], [4096, 2.5]]
                  for label, _ in spec["columns"]}
        doc = f"<!-- suite:{name} -->\n<!-- /suite:{name} -->\n"
        text, updated = render_experiments_md({name: {"series": series}},
                                              doc)
        assert updated == [name]
        header, _, *rows = text.splitlines()[1:-1]
        heads = [head for _, head in spec["columns"]]
        assert header.endswith(" | " + " | ".join(heads) + " |")
        assert len(rows) == 2 and "—" not in "".join(rows)

    def test_missing_markers_is_an_error(self):
        report = run_suite(names=["latency"], mode="smoke", cache=None)
        with pytest.raises(ConfigError):
            render_experiments_md(report.payloads, "no markers here")


class TestCliSuite:
    def test_cli_suite_runs_and_writes_report(self, tmp_path, capsys):
        from repro.bench.cli import main

        report_path = tmp_path / "report.json"
        code = main(["suite", "--tiny", "--cache-dir",
                     str(tmp_path / "cache"), "--report", str(report_path),
                     "--json"])
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert doc["schema"] == SCHEMA
        assert doc["summary"]["experiments"] == 23
        payloads = json.loads(capsys.readouterr().out)
        assert set(payloads) == set(REGISTRY)

    def test_cli_suite_smoke_tiny_conflict(self, capsys):
        from repro.bench.cli import main

        assert main(["suite", "--smoke", "--tiny"]) == 2
