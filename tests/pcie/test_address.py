"""Unit tests for regions and address spaces."""

import pytest

from repro.errors import AddressError, ConfigError
from repro.pcie.address import AddressSpace, Region, align_up


def test_region_basics():
    region = Region(0x1000, 0x1000, "r")
    assert region.end == 0x2000
    assert region.contains(0x1000)
    assert region.contains(0x1FFF)
    assert not region.contains(0x2000)
    assert region.contains(0x1800, 0x800)
    assert not region.contains(0x1800, 0x801)


def test_region_offset_of():
    region = Region(0x1000, 0x1000, "r")
    assert region.offset_of(0x1234) == 0x234
    with pytest.raises(AddressError):
        region.offset_of(0x2000)


def test_region_invalid_size():
    with pytest.raises(ConfigError):
        Region(0, 0, "bad")


def test_region_overlap():
    a = Region(0, 100)
    assert a.overlaps(Region(50, 100))
    assert not a.overlaps(Region(100, 100))


def test_alignment_helpers():
    assert align_up(1, 4096) == 4096
    assert align_up(4096, 4096) == 4096


class TestAddressSpace:
    def test_lookup_finds_target(self):
        space = AddressSpace("s")
        space.add(Region(0x1000, 0x1000, "a"), "target-a")
        space.add(Region(0x4000, 0x1000, "b"), "target-b")
        assert space.lookup(0x1500) == "target-a"
        assert space.lookup(0x4FFF) == "target-b"

    def test_unmapped_raises(self):
        space = AddressSpace("s")
        space.add(Region(0x1000, 0x1000, "a"), "t")
        with pytest.raises(AddressError, match="unmapped"):
            space.lookup(0x0)
        with pytest.raises(AddressError, match="unmapped"):
            space.lookup(0x2000)

    def test_overlap_rejected(self):
        space = AddressSpace("s")
        space.add(Region(0x1000, 0x1000, "a"), "t")
        with pytest.raises(ConfigError, match="overlaps"):
            space.add(Region(0x1800, 0x1000, "b"), "t2")

    def test_straddle_rejected(self):
        space = AddressSpace("s")
        space.add(Region(0x1000, 0x1000, "a"), "t")
        with pytest.raises(AddressError, match="straddles"):
            space.lookup(0x1F00, length=0x200)

    def test_insert_out_of_order(self):
        space = AddressSpace("s")
        space.add(Region(0x4000, 0x1000, "b"), "b")
        space.add(Region(0x1000, 0x1000, "a"), "a")
        space.add(Region(0x2000, 0x1000, "m"), "m")
        assert [r.name for r in space.regions] == ["a", "m", "b"]
        assert space.lookup(0x2800) == "m"

    def test_find_by_name(self):
        space = AddressSpace("s")
        space.add(Region(0x1000, 0x1000, "dram"), "t")
        assert space.find("dram").base == 0x1000
        with pytest.raises(KeyError):
            space.find("missing")

    def test_len(self):
        space = AddressSpace("s")
        assert len(space) == 0
        space.add(Region(0, 10, "x"), 1)
        assert len(space) == 1
