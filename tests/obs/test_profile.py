"""Host-time sampler: frame mapping, invariance, signal hygiene, schema."""

import json
import signal
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.bench.loopback import LoopbackRig
from repro.errors import ConfigError
from repro.obs.profile import OTHER, ProfileReport, Sampler, classify
from repro.sim.core import Engine


def _frame(module, qualname, back=None, name=None):
    """A stand-in frame: ``classify`` reads only these four fields."""
    code = SimpleNamespace(co_qualname=qualname,
                           co_name=name or qualname.rsplit(".", 1)[-1])
    return SimpleNamespace(f_globals={"__name__": module}, f_code=code,
                           f_back=back)


def _report():
    counts = {("sim", "repro.sim.core.Engine._drain"): 50,
              ("pcie", "repro.pcie.link.PCIeLink.transmit"): 30,
              ("sim", "repro.sim.core.Process._step"): 15,
              (OTHER, OTHER): 5}
    return ProfileReport(counts, window_ns=400_000_000, label="synthetic")


@pytest.fixture
def sigprof_marker():
    """Install a recognisable SIGPROF handler; restore the original."""
    def marker(signum, frame):
        pass

    original = signal.signal(signal.SIGPROF, marker)
    try:
        yield marker
    finally:
        signal.signal(signal.SIGPROF, original)


def test_frame_maps_to_layer_and_site():
    outer = _frame("repro.bench.experiments", "contention")
    dma = _frame("repro.peach2.dma", "DMAEngine._run", back=outer)
    helper = _frame("numpy.core.fromnumeric", "sum", back=dma)
    # The innermost repro frame wins; non-repro frames above it are
    # walked through.
    assert classify(helper) == ("peach2", "repro.peach2.dma.DMAEngine._run")
    assert classify(outer) == ("bench", "repro.bench.experiments.contention")
    # A stack without any repro frame, and the top-level package itself.
    assert classify(_frame("tests.x", "f")) == (OTHER, OTHER)
    assert classify(_frame("repro", "f")) == (OTHER, OTHER)
    assert classify(None) == (OTHER, OTHER)
    # Python 3.10 code objects have no co_qualname: the bare name stands.
    old = SimpleNamespace(f_globals={"__name__": "repro.sim.core"},
                          f_code=SimpleNamespace(co_name="_step"),
                          f_back=None)
    assert classify(old) == ("sim", "repro.sim.core._step")


def test_real_frames_map_to_the_engine_loop():
    seen = []
    engine = Engine()
    engine.call_soon(lambda: seen.append(classify(sys._getframe())))
    engine.run()
    drain = ("Engine._drain" if sys.version_info >= (3, 11) else "_drain")
    assert seen == [("sim", f"repro.sim.core.{drain}")]


def test_disabled_by_default():
    Sampler()
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_profiled_run_is_ps_identical():
    bare = LoopbackRig()
    bare_ns = bare.pio_commit_latency_ns()
    with Sampler().session():
        rig = LoopbackRig()
        profiled_ns = rig.pio_commit_latency_ns()
    assert profiled_ns == bare_ns
    assert rig.engine.now_ps == bare.engine.now_ps
    assert rig.engine.events_processed == bare.engine.events_processed


def test_attributes_at_least_95_percent_of_window():
    # A repro workload's samples name repro layers, not OTHER.  Run until
    # enough samples arrived to make 5 % meaningful.
    sampler = Sampler()
    deadline = time.monotonic() + 30
    with sampler.session():
        while (sampler.report().samples < 60
               and time.monotonic() < deadline):
            LoopbackRig().pio_commit_latency_ns()
    report = sampler.report()
    assert report.samples >= 60, "SIGPROF never (or rarely) fired"
    assert report.layers().get(OTHER, 0.0) <= 0.05
    assert report.window_ns > 0


def test_restores_handler_and_disarms_timer(sigprof_marker):
    with Sampler().session():
        assert signal.getsignal(signal.SIGPROF) is not sigprof_marker
        assert signal.getitimer(signal.ITIMER_PROF) != (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) is sigprof_marker
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_restores_handler_and_disarms_timer_when_block_raises(
        sigprof_marker):
    with pytest.raises(RuntimeError, match="boom"):
        with Sampler().session():
            raise RuntimeError("boom")
    assert signal.getsignal(signal.SIGPROF) is sigprof_marker
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_off_main_thread_is_a_one_line_config_error():
    errors = []

    def start():
        try:
            with Sampler().session():
                pass
        except Exception as exc:  # noqa: BLE001 - inspected below
            errors.append(exc)

    thread = threading.Thread(target=start)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert len(errors) == 1 and isinstance(errors[0], ConfigError)
    assert "\n" not in str(errors[0])
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_report_dict_schema_and_render():
    report = _report()
    doc = report.to_dict(top_n=3)
    assert doc["schema"] == "tca-bench-profile/2"
    assert doc["label"] == "synthetic"
    assert doc["samples"] == 100
    assert doc["layers"] == {"sim": 0.65, "pcie": 0.3, OTHER: 0.05}
    assert sum(report.layers().values()) == pytest.approx(1.0)
    assert len(doc["hotspots"]) == 3
    for spot in doc["hotspots"]:
        assert set(spot) == {"layer", "site", "samples", "share", "wall_ns"}
    # Wall estimates scale by the measured window: 50 of 100 samples.
    assert doc["hotspots"][0]["wall_ns"] == 200_000_000
    json.loads(json.dumps(doc))  # round-trips
    text = report.render(top_n=2)
    assert "repro.sim.core.Engine._drain" in text
    assert "100 samples" in text


def test_empty_report_has_no_shares():
    report = Sampler().report()
    assert report.samples == 0 and report.layers() == {}
    assert report.to_dict()["hotspots"] == []


def test_top_is_sorted_by_wall_time():
    walls = [e.wall_ns for e in _report().top(10)]
    assert walls == sorted(walls, reverse=True)


def test_run_profile_covers_perf_experiments(monkeypatch):
    from repro.bench import perf

    def tiny_experiment():
        LoopbackRig().pio_commit_latency_ns()

    names = list(perf.PERF_EXPERIMENTS)
    monkeypatch.setattr(perf, "PERF_EXPERIMENTS",
                        {name: tiny_experiment for name in names})
    reports = perf.run_profile()
    assert list(reports) == names
    for name, report in reports.items():
        assert isinstance(report, ProfileReport)
        assert report.label == name and report.window_ns > 0
