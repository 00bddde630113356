"""Unit tests for the MPI point-to-point stack."""

import numpy as np
import pytest

from repro.baselines.mpi import MPIParams
from repro.baselines.paths import _IBPair
from repro.units import KiB


def exchange(pair, nbytes, tag=0, post_recv_first=True):
    data = np.random.default_rng(nbytes).integers(0, 256, nbytes,
                                                  dtype=np.uint8)
    src, dst = pair.host_buffers
    pair.nodes[0].dram.cpu_write(src, data)

    def run():
        if post_recv_first:
            recv = pair.ranks[1].irecv(0, dst, nbytes, tag)
            send = pair.ranks[0].isend(1, src, nbytes, tag)
        else:
            send = pair.ranks[0].isend(1, src, nbytes, tag)
            yield 50_000_000  # 50 us: message arrives unexpected
            recv = pair.ranks[1].irecv(0, dst, nbytes, tag)
        yield recv
        yield send

    pair.engine.run_process(run())
    got = pair.nodes[1].dram.cpu_read(dst, nbytes)
    assert np.array_equal(got, data), "payload corrupted"
    return pair.engine.now_ps


def test_eager_small_message():
    pair = _IBPair()
    exchange(pair, 256)


def test_eager_at_threshold():
    pair = _IBPair()
    exchange(pair, pair.world.params.eager_threshold)


def test_rendezvous_large_message():
    pair = _IBPair()
    exchange(pair, 256 * KiB)


def test_unexpected_eager_message():
    pair = _IBPair()
    exchange(pair, 512, post_recv_first=False)


def test_unexpected_rendezvous_message():
    pair = _IBPair()
    exchange(pair, 64 * KiB, post_recv_first=False)


def test_tag_matching():
    pair = _IBPair()
    src, dst = pair.host_buffers
    a = np.full(64, 1, dtype=np.uint8)
    b = np.full(64, 2, dtype=np.uint8)
    pair.nodes[0].dram.cpu_write(src, a)
    pair.nodes[0].dram.cpu_write(src + 64, b)

    def run():
        # Recv for tag 2 posted first, then tag 1; sends in tag order 1, 2.
        recv_b = pair.ranks[1].irecv(0, dst, 64, tag=2)
        recv_a = pair.ranks[1].irecv(0, dst + 64, 64, tag=1)
        pair.ranks[0].isend(1, src, 64, tag=1)
        pair.ranks[0].isend(1, src + 64, 64, tag=2)
        yield recv_b
        yield recv_a

    pair.engine.run_process(run())
    assert pair.nodes[1].dram.cpu_read(dst, 64)[0] == 2
    assert pair.nodes[1].dram.cpu_read(dst + 64, 64)[0] == 1


def test_wildcard_tag():
    pair = _IBPair()
    src, dst = pair.host_buffers
    pair.nodes[0].dram.cpu_write(src, np.full(32, 9, dtype=np.uint8))

    def run():
        recv = pair.ranks[1].irecv(0, dst, 32, tag=-1)
        pair.ranks[0].isend(1, src, 32, tag=77)
        yield recv

    pair.engine.run_process(run())
    assert pair.nodes[1].dram.cpu_read(dst, 32)[0] == 9


def test_truncation_rejected():
    pair = _IBPair()
    src, dst = pair.host_buffers
    pair.nodes[0].dram.cpu_write(src, np.zeros(128, dtype=np.uint8))

    def run():
        recv = pair.ranks[1].irecv(0, dst, 64)  # too small
        pair.ranks[0].isend(1, src, 128)
        yield recv

    from repro.errors import ConfigError
    with pytest.raises(ConfigError, match="truncation"):
        pair.engine.run_process(run())


def test_rendezvous_slower_start_higher_bandwidth():
    """Eager pays copies; rendezvous pays handshake: crossover behaviour."""
    small_eager = _IBPair()
    t_small = exchange(small_eager, 1 * KiB)
    big = _IBPair(mpi_params=MPIParams(eager_threshold=512))
    t_big_rndv = exchange(big, 1 * KiB)
    # The same 1 KiB costs more via rendezvous (RTS/CTS round trip).
    assert t_big_rndv > t_small


def test_counters():
    pair = _IBPair()
    exchange(pair, 128)
    assert pair.ranks[0].messages_sent == 1
    assert pair.ranks[0].bytes_sent == 128
