"""Unit tests for the multi-channel DMA chain scheduler."""

import pytest

from repro.collectives import ChannelScheduler
from repro.errors import ConfigError
from repro.hw.node import NodeParams
from repro.tca.comm import TCAComm
from repro.tca.subcluster import TCASubCluster


def make_cluster(n=2):
    return TCASubCluster(n, node_params=NodeParams(num_gpus=1))


def chain_to(cluster, comm, dst_node, dst_offset, nbytes=8192):
    driver = cluster.driver(0)
    dst_global = comm.host_global(
        dst_node, cluster.driver(dst_node).dma_buffer(dst_offset))
    return comm.put_dma_descriptors(0, driver.dma_buffer(0), dst_global,
                                    nbytes)


class TestValidation:
    def test_rejects_empty_channel_list(self):
        cluster = make_cluster()
        with pytest.raises(ConfigError):
            ChannelScheduler(cluster, 0, channels=[])

    def test_rejects_duplicate_channels(self):
        cluster = make_cluster()
        with pytest.raises(ConfigError):
            ChannelScheduler(cluster, 0, channels=[0, 0])

    def test_rejects_out_of_range_channel(self):
        cluster = make_cluster()
        with pytest.raises(ConfigError):
            ChannelScheduler(cluster, 0, channels=[99])

    def test_rejects_empty_chain(self):
        cluster = make_cluster()
        sched = ChannelScheduler(cluster, 0)
        with pytest.raises(ConfigError):
            sched.submit([])


class TestScheduling:
    def test_single_chain_completes_with_elapsed_ps(self):
        cluster = make_cluster()
        comm = TCAComm(cluster)
        sched = ChannelScheduler(cluster, 0)
        done = sched.submit(chain_to(cluster, comm, 1, 0))
        cluster.engine.run_process(sched.drain())
        assert done.fired
        assert done.value > 0
        assert sched.idle
        assert sched.submitted == sched.completed == 1

    def test_concurrent_chains_use_distinct_channels(self):
        cluster = make_cluster()
        comm = TCAComm(cluster)
        sched = ChannelScheduler(cluster, 0)
        signals = [sched.submit(chain_to(cluster, comm, 1, i * 65536))
                   for i in range(3)]
        assert sched.inflight == 3
        assert sched.max_inflight == 3
        cluster.engine.run_process(sched.drain())
        assert all(s.fired for s in signals)
        used = [ch for ch, count in sched.chains_per_channel().items()
                if count]
        assert len(used) == 3

    def test_overflow_queues_then_runs(self):
        cluster = make_cluster()
        comm = TCAComm(cluster)
        num = cluster.board(0).chip.dma.num_channels
        sched = ChannelScheduler(cluster, 0)
        signals = [sched.submit(chain_to(cluster, comm, 1, i * 65536))
                   for i in range(num + 2)]
        assert sched.inflight == num
        assert sched.queued_high_water == 2
        cluster.engine.run_process(sched.drain())
        assert all(s.fired for s in signals)
        assert sched.completed == num + 2
        assert sched.idle

    def test_overlap_beats_serial_submission(self):
        """Two chains on two channels finish sooner than back to back."""
        nbytes = 262144
        # Serial: wait for each chain before submitting the next.
        cluster = make_cluster()
        comm = TCAComm(cluster)
        driver = cluster.driver(0)

        def serial():
            for i in range(2):
                dst = comm.host_global(
                    1, cluster.driver(1).dma_buffer(i * nbytes))
                yield cluster.engine.process(driver.run_chain(
                    0, comm.put_dma_descriptors(
                        0, driver.dma_buffer(0), dst, nbytes)))
        t0 = cluster.engine.now_ps
        cluster.engine.run_process(serial())
        serial_ps = cluster.engine.now_ps - t0

        # Overlapped: both in flight through the scheduler.
        cluster = make_cluster()
        comm = TCAComm(cluster)
        sched = ChannelScheduler(cluster, 0)
        t0 = cluster.engine.now_ps
        for i in range(2):
            sched.submit(chain_to(cluster, comm, 1, i * nbytes, nbytes))
        cluster.engine.run_process(sched.drain())
        overlapped_ps = cluster.engine.now_ps - t0
        assert overlapped_ps < serial_ps

    def test_restricted_channel_set_is_respected(self):
        cluster = make_cluster()
        comm = TCAComm(cluster)
        sched = ChannelScheduler(cluster, 0, channels=[2])
        for i in range(2):
            sched.submit(chain_to(cluster, comm, 1, i * 65536))
        assert sched.inflight == 1  # second chain queued behind channel 2
        cluster.engine.run_process(sched.drain())
        assert sched.chains_per_channel() == {2: 2}
