"""Fig. 7/9 sweep points as jobs on the supervised fork pool.

``fig7``/``fig9`` with ``workers > 1`` run every measurement point as a
:class:`~repro.bench.jobs.Job` on :class:`~repro.bench.jobs.JobScheduler`;
the tables must equal the inline ones, a point that raises must surface
as a :class:`SimulationError`, and a worker killed mid-sweep must cost
nothing but a requeue.  ``tca-bench --engine-workers`` refuses the
combinations whose telemetry or faults fork workers would lose.
"""

import os
import signal

import pytest

from repro.bench import experiments
from repro.bench.cli import main
from repro.errors import SimulationError


def test_fig7_two_workers_byte_identical():
    sizes = (64, 256)
    inline = experiments.fig7(sizes=sizes, count=3)
    forked = experiments.fig7(sizes=sizes, count=3, workers=2)
    assert forked.to_dict() == inline.to_dict()


def test_fig9_two_workers_byte_identical():
    counts = (1, 2, 4)
    inline = experiments.fig9(counts=counts, size=256)
    forked = experiments.fig9(counts=counts, size=256, workers=2)
    assert forked.to_dict() == inline.to_dict()


def test_empty_sweep():
    assert experiments._measure_points([], 2) == []


def test_inline_sweep_never_starts_the_scheduler(monkeypatch):
    from repro.bench import jobs

    def refuse(self):
        raise AssertionError("workers=1 must run inline")

    monkeypatch.setattr(jobs.JobScheduler, "run", refuse)
    experiments.fig7(sizes=(64,), count=2, workers=1)


def test_failing_point_raises_simulation_error(monkeypatch):
    measure = experiments._measure_point

    def flaky(task):
        if task[2] == 256:
            raise ValueError("point 256 exploded")
        return measure(task)

    monkeypatch.setattr(experiments, "_measure_point", flaky)
    with pytest.raises(SimulationError, match="point 256 exploded"):
        experiments.fig7(sizes=(64, 256), count=3, workers=2)


def test_killed_worker_point_is_requeued(monkeypatch, tmp_path):
    inline = experiments.fig7(sizes=(64, 256), count=3)
    marker = tmp_path / "killed-once"
    measure = experiments._measure_point

    def die_once(task):
        if task == ("read", "gpu", 256, 3) and not marker.exists():
            marker.touch()
            os.kill(os.getpid(), signal.SIGKILL)
        return measure(task)

    monkeypatch.setattr(experiments, "_measure_point", die_once)
    forked = experiments.fig7(sizes=(64, 256), count=3, workers=2)
    assert marker.exists()
    assert forked.to_dict() == inline.to_dict()


@pytest.mark.parametrize("flag, value", [
    ("--trace", "t.json"),
    ("--metrics", "m.json"),
    ("--fault-plan", "flaky-links:3"),
])
def test_engine_workers_refuse_unobserved_runs(flag, value, tmp_path,
                                                monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["fig7", "--engine-workers", "2", flag, value]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and flag in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["latency", "suite", "perf", "serve"])
def test_engine_workers_only_apply_to_sweeps(command, monkeypatch, capsys):
    from repro.bench import cli
    from repro.serve import server

    def ran(*args):
        raise AssertionError(f"{command} ran despite --engine-workers 2")

    for module, name in ((cli, "_suite_main"), (cli, "_perf_main"),
                         (server, "serve_main")):
        monkeypatch.setattr(module, name, ran)
    assert main([command, "--engine-workers", "2"]) == 2
    assert "fig7, fig9 and all" in capsys.readouterr().err


def test_negative_engine_workers_exit_2(capsys):
    assert main(["fig7", "--engine-workers", "-1"]) == 2
    assert ">= 0" in capsys.readouterr().err
