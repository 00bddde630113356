"""Unit tests for unit conversions."""

import pytest

from repro import units


def test_time_conversions_roundtrip():
    assert units.ns(1) == 1000
    assert units.us(1) == 1000 * 1000
    assert units.ms(1) == units.us(1000)
    assert units.to_s(units.PS_PER_S) == 1.0


def test_fractional_ns():
    assert units.ns(7.6) == 7600
    assert units.ns(0.0006) == 1  # rounds


def test_transfer_ps():
    rate = 4e9 / units.PS_PER_S  # 4 GB/s = 0.004 bytes/ps
    assert units.transfer_ps(280, rate) == 70000  # 70 ns
    assert units.transfer_ps(0, rate) == 0
    assert units.transfer_ps(1, rate) >= 1


def test_bw_gbytes_per_s():
    # 4096 bytes in 1 us -> 4.096 GB/s (decimal).
    assert units.bw_gbytes_per_s(4096, units.us(1)) == pytest.approx(4.096e-3 * 1000)


def test_bw_rejects_zero_elapsed():
    with pytest.raises(ValueError):
        units.bw_gbytes_per_s(1, 0)


def test_pretty_size():
    assert units.pretty_size(512) == "512"
    assert units.pretty_size(4096) == "4K"
    assert units.pretty_size(2 * units.MiB) == "2M"
    assert units.pretty_size(1536) == "1536"
