"""Unit tests for TLP construction and wire sizing."""

import numpy as np
import pytest

from repro.errors import PCIeError
from repro.pcie.tlp import (TLP, TLP_OVERHEAD_BYTES, TLPKind, make_completion,
                            make_msi, make_read, make_write, tlp_wire_bytes)


def test_overhead_matches_eq1():
    # 16 + 2 + 4 + 1 + 1 from the paper's Eq. (1).
    assert TLP_OVERHEAD_BYTES == 24


def test_write_wire_bytes():
    tlp = make_write(0x1000, np.zeros(256, dtype=np.uint8))
    assert tlp.wire_bytes == 256 + 24


def test_read_request_carries_no_payload():
    tlp = make_read(0x1000, 256, requester_id=5, tag=3)
    assert tlp.payload is None
    assert tlp.wire_bytes == 24
    assert tlp.length == 256


def test_read_with_payload_rejected():
    with pytest.raises(PCIeError):
        TLP(TLPKind.MRD, address=0, length=4,
            payload=np.zeros(4, dtype=np.uint8))


def test_write_without_payload_rejected():
    with pytest.raises(PCIeError):
        TLP(TLPKind.MWR, address=0, length=4)


def test_length_payload_mismatch_rejected():
    with pytest.raises(PCIeError):
        TLP(TLPKind.MWR, address=0, length=8,
            payload=np.zeros(4, dtype=np.uint8))


def test_negative_length_rejected():
    with pytest.raises(PCIeError):
        TLP(TLPKind.MRD, address=0, length=-1)


def test_completion_inherits_requester_and_tag():
    request = make_read(0x2000, 64, requester_id=9, tag=42)
    cpl = make_completion(request, np.arange(64, dtype=np.uint8))
    assert cpl.kind is TLPKind.CPLD
    assert cpl.requester_id == 9 and cpl.tag == 42
    assert cpl.length == 64


def test_completion_of_non_read_rejected():
    write = make_write(0, np.zeros(4, dtype=np.uint8))
    with pytest.raises(PCIeError):
        make_completion(write, np.zeros(4, dtype=np.uint8))


def test_msi_is_4_byte_posted_write():
    msi = make_msi(0xFEE0_0000, vector=33)
    assert msi.kind is TLPKind.MSI
    assert msi.length == 4
    assert int.from_bytes(msi.payload.tobytes(), "little") == 33


def test_serials_unique():
    a = make_read(0, 4, 0, 0)
    b = make_read(0, 4, 0, 0)
    assert a.serial != b.serial


def test_wire_bytes_helper():
    assert tlp_wire_bytes(TLPKind.MRD, 4096) == 24
    assert tlp_wire_bytes(TLPKind.CPLD, 128) == 152


def test_make_write_coerces_dtype():
    tlp = make_write(0, np.arange(4, dtype=np.int32).astype(np.uint8))
    assert tlp.payload.dtype == np.uint8
