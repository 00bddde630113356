"""Unit tests for the benchmark infrastructure (series, rigs, CLI)."""

import pytest

from repro.bench.cli import EXPERIMENTS, main, render
from repro.bench.harness import SingleNodeRig, TwoNodeRig
from repro.bench.series import Series, SweepTable
from repro.errors import ConfigError
from repro.units import KiB


class TestSeries:
    def test_add_and_lookup(self):
        series = Series("s")
        series.add(64, 1.5)
        series.add(128, 2.5)
        assert series.y_at(64) == 1.5
        assert series.peak == 2.5
        with pytest.raises(KeyError):
            series.y_at(999)

    def test_sweep_table_render(self):
        table = SweepTable("T", x_label="size")
        table.add("a", 64, 1.0)
        table.add("a", 4096, 3.3)
        table.add("b", 64, 0.5)
        text = table.render()
        assert "T" in text
        assert "4K" in text
        assert "3.300" in text
        assert "-" in text  # b has no 4K point

    def test_xs_sorted_union(self):
        table = SweepTable("T")
        table.add("a", 128, 1)
        table.add("b", 64, 1)
        assert table.xs() == [64, 128]

    def test_non_size_axis(self):
        table = SweepTable("T", x_label="requests", x_is_size=False)
        table.add("a", 4, 2.0)
        assert "4" in table.render()

    def test_chart_render(self):
        table = SweepTable("Chart")
        for x, y in ((64, 0.1), (1024, 1.7), (4096, 3.3)):
            table.add("write", x, y)
            table.add("read", x, y * 0.7)
        chart = table.render_chart(width=40, height=8)
        assert "A = write" in chart and "B = read" in chart
        assert "(log)" in chart
        assert "4K" in chart

    def test_chart_empty(self):
        assert "(no data)" in SweepTable("E").render_chart()

    def test_chart_collision_marker(self):
        table = SweepTable("C")
        table.add("a", 100, 1.0)
        table.add("b", 100, 1.0)
        assert "*" in table.render_chart(width=20, height=5)


class TestRigs:
    def test_single_node_rig_validation(self):
        rig = SingleNodeRig()
        with pytest.raises(ConfigError):
            rig.measure("write", "cpu", 1 << 20, 255)  # too big
        with pytest.raises(ConfigError):
            rig.measure("write", "nowhere", 64)
        with pytest.raises(ConfigError):
            rig.measure("steal", "cpu", 64)

    def test_single_node_rig_reuse_channels(self):
        rig = SingleNodeRig()
        _, bw1 = rig.measure("write", "cpu", 4 * KiB, 4)
        _, bw2 = rig.measure("write", "cpu", 4 * KiB, 4)
        # Same rig, sequential measurements, same result (deterministic).
        assert bw1 == pytest.approx(bw2, rel=1e-6)

    def test_gpu_target_is_pinned_bar_address(self):
        rig = SingleNodeRig()
        addr = rig.gpu_target()
        gpu = rig.node.gpus[0]
        assert gpu.bar1.contains(addr)
        assert gpu.is_pinned(gpu.bar_to_offset(addr), 4096)

    def test_two_node_rig_targets(self):
        rig = TwoNodeRig()
        cpu = rig.remote_cpu_target()
        assert rig.cluster.address_map.contains(cpu)
        gpu = rig.remote_gpu_target()
        node, block, _ = rig.cluster.address_map.decompose(gpu)
        assert node == 1 and block == 0


class TestCLI:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "latency" in out

    def test_unknown_experiment(self, capsys):
        assert main(["not-a-thing"]) == 2

    def test_run_fast_experiment(self, capsys):
        assert main(["theory"]) == 0
        out = capsys.readouterr().out
        assert "eq1_peak_gbytes" in out

    def test_registry_complete(self):
        for name in ("table1", "table2", "theory", "fig7", "fig8", "fig9",
                     "limits", "latency", "fig12", "comparison-host",
                     "comparison-gpu", "pio-dma-crossover", "hierarchy",
                     "collectives", "contention", "validate",
                     "ablation-dmac", "ablation-ring", "ablation-ntb"):
            assert name in EXPERIMENTS

    def test_unread_flags_refused_before_running(self, monkeypatch,
                                                 capsys):
        from repro.bench import cli

        def must_not_run():
            raise AssertionError("theory ran despite unread flags")

        monkeypatch.setitem(cli.EXPERIMENTS, "theory", must_not_run)
        assert main(["theory", "--check", "--shards", "4", "--profile",
                     "--render-md", "nothere.md", "--port", "1"]) == 2
        usage, error = capsys.readouterr().err.splitlines()
        assert usage.startswith("usage: tca-bench ")
        assert error == ("tca-bench: error: unrecognized arguments: "
                         "--check --shards 4 --profile --render-md "
                         "nothere.md --port 1")

    def test_render_kinds(self):
        table = SweepTable("x")
        table.add("s", 1, 2)
        assert "x" in render(table)
        assert "a : 1" in render({"a": 1})
        assert render("plain") == "plain"
