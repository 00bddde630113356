"""Unit tests for backing stores and the host memory controller."""

import numpy as np
import pytest

from repro.errors import AddressError
from repro.hw.memory import BackingStore, HostMemory, MemoryParams, PAGE_SIZE
from repro.pcie.link import LinkParams, PCIeLink
from repro.pcie.port import PortRole
from repro.pcie.tlp import make_read, make_write
from repro.units import GiB, ns
from tests.pcie.helpers import RequesterDevice


class TestBackingStore:
    def test_roundtrip(self):
        store = BackingStore(1 << 20, "s")
        data = np.arange(100, dtype=np.uint8)
        store.write(1234, data)
        assert np.array_equal(store.read(1234, 100), data)

    def test_unwritten_reads_zero(self):
        store = BackingStore(1 << 20, "s")
        assert not store.read(5000, 16).any()

    def test_cross_page_write(self):
        store = BackingStore(1 << 20, "s")
        data = np.arange(PAGE_SIZE, dtype=np.int64).astype(np.uint8)
        store.write(PAGE_SIZE - 100, data)
        assert np.array_equal(store.read(PAGE_SIZE - 100, len(data)), data)

    def test_sparse_residency(self):
        store = BackingStore(128 * GiB, "big")
        store.write(64 * GiB, np.ones(10, dtype=np.uint8))
        assert len(store._pages) == 1  # one materialized page

    def test_out_of_bounds_rejected(self):
        store = BackingStore(1000, "s")
        with pytest.raises(AddressError):
            store.write(999, np.zeros(2, dtype=np.uint8))
        with pytest.raises(AddressError):
            store.read(-1, 1)

    def test_invalid_size(self):
        with pytest.raises(AddressError):
            BackingStore(0, "s")

    def test_overwrite(self):
        store = BackingStore(4096, "s")
        store.write(0, np.full(16, 1, dtype=np.uint8))
        store.write(8, np.full(16, 2, dtype=np.uint8))
        assert store.read(0, 8).tolist() == [1] * 8
        assert store.read(8, 16).tolist() == [2] * 16


def build_memory(engine, params=None):
    mem = HostMemory(engine, "dram", 1 << 24, params or MemoryParams())
    req = RequesterDevice(engine, "req", role=PortRole.INTERNAL)
    mem.port.role = PortRole.INTERNAL
    PCIeLink(engine, req.port, mem.port, LinkParams(latency_ps=ns(5)))
    return mem, req


class TestHostMemory:
    def test_write_commits_after_delay(self, engine):
        mem, req = build_memory(engine)
        data = np.arange(64, dtype=np.uint8)
        req.port.send(make_write(0x100, data, requester_id=req.device_id))
        engine.run()
        assert np.array_equal(mem.cpu_read(0x100, 64), data)
        assert mem.bytes_written == 64

    def test_read_returns_completions(self, engine):
        mem, req = build_memory(engine)
        mem.cpu_write(0x200, np.arange(100, dtype=np.uint8))

        def proc():
            tag, done = req.tags.issue(100)
            req.port.send(make_read(0x200, 100,
                                    requester_id=req.device_id, tag=tag))
            data = yield done
            return data

        data = engine.run_process(proc())
        assert data == bytes(range(100))
        assert mem.bytes_read == 100

    def test_large_read_split_into_mps_completions(self, engine):
        mem, req = build_memory(engine)
        mem.cpu_write(0, np.arange(1024, dtype=np.int64).astype(np.uint8))

        def proc():
            tag, done = req.tags.issue(1024)
            req.port.send(make_read(0, 1024, requester_id=req.device_id,
                                    tag=tag))
            data = yield done
            return data

        data = engine.run_process(proc())
        assert len(data) == 1024

    def test_read_latency_applied(self, engine):
        params = MemoryParams(read_latency_ps=ns(300))
        mem, req = build_memory(engine, params)

        def proc():
            tag, done = req.tags.issue(4)
            req.port.send(make_read(0, 4, requester_id=req.device_id,
                                    tag=tag))
            yield done
            return engine.now_ps

        assert engine.run_process(proc()) >= ns(300)

    def test_outstanding_read_limit_throttles(self, engine):
        slow = MemoryParams(read_latency_ps=ns(1000),
                            max_outstanding_reads=1)
        mem, req = build_memory(engine, slow)

        def proc():
            waits = []
            for i in range(4):
                tag, done = req.tags.issue(4)
                req.port.send(make_read(i * 64, 4,
                                        requester_id=req.device_id, tag=tag))
                waits.append(done)
            for w in waits:
                if not w.fired:
                    yield w
            return engine.now_ps

        # 4 serialized reads of 1 us each.
        assert engine.run_process(proc()) >= 4 * ns(1000)

    def test_cpu_access_outside_region(self, engine):
        mem, _ = build_memory(engine)
        with pytest.raises(AddressError):
            mem.cpu_read(1 << 25, 4)
