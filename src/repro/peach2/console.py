"""NIOS management console (Gigabit Ethernet / RS-232C, §III-D).

The board exposes a tiny line-oriented operator console served by the
NIOS firmware — "Gigabit Ethernet and RS-232C are equipped for
communication with the NIOS processor".  It is management-plane only: it
can read state and reprogram control registers, but never touches the
data path.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.peach2.dma import (STATUS_ABORTED, STATUS_DONE, STATUS_IDLE,
                              STATUS_RUNNING)

_STATUS_NAMES = {STATUS_IDLE: "idle", STATUS_RUNNING: "running",
                 STATUS_DONE: "done", STATUS_ABORTED: "aborted"}


class ManagementConsole:
    """Line-command interface to one chip's NIOS firmware."""

    PROMPT = "peach2> "

    def __init__(self, chip):
        self.chip = chip
        self.history: List[str] = []
        self._commands: Dict[str, Callable[[List[str]], str]] = {
            "help": self._cmd_help,
            "id": self._cmd_id,
            "status": self._cmd_status,
            "links": self._cmd_links,
            "counters": self._cmd_counters,
            "routes": self._cmd_routes,
            "dma": self._cmd_dma,
            "reset": self._cmd_reset,
        }

    def execute(self, line: str) -> str:
        """Run one console command line and return its output."""
        self.history.append(line)
        parts = line.split()
        if not parts:
            return ""
        handler = self._commands.get(parts[0])
        if handler is None:
            return f"unknown command {parts[0]!r}; try 'help'"
        try:
            return handler(parts[1:])
        except Exception as exc:  # operator console: report, don't crash
            return f"error: {exc}"

    # -- commands -----------------------------------------------------------------

    def _cmd_help(self, args: List[str]) -> str:
        return ("commands: help | id | status | links | counters | routes "
                "| dma <ch> | reset dma <ch>")

    def _cmd_id(self, args: List[str]) -> str:
        regs = self.chip.regs
        return (f"node_id={regs.node_id} tca_base=0x{regs.tca_base:x} "
                f"stride=0x{regs.node_stride:x} block=0x{regs.block_size:x}")

    def _cmd_status(self, args: List[str]) -> str:
        return self.chip.firmware.health_report()

    def _cmd_links(self, args: List[str]) -> str:
        states = self.chip.firmware.scan_links()
        return " ".join(f"{name}={'up' if up else 'down'}"
                        for name, up in states.items())

    def _cmd_counters(self, args: List[str]) -> str:
        lines = [f"routed_total={self.chip.tlps_routed}"]
        for name, port in (("N", self.chip.port_n), ("E", self.chip.port_e),
                           ("W", self.chip.port_w), ("S", self.chip.port_s)):
            lines.append(f"{name}: tx={port.tlps_sent} rx={port.tlps_received}")
        return "\n".join(lines)

    def _cmd_routes(self, args: List[str]) -> str:
        routes = self.chip.regs.routes()
        if not routes:
            return "routing table empty"
        lines = []
        for i, entry in enumerate(routes):
            lines.append(f"[{i}] mask=0x{entry.mask:x} "
                         f"lo=0x{entry.lower:x} hi=0x{entry.upper:x} "
                         f"-> {entry.port.name}")
        return "\n".join(lines)

    def _cmd_dma(self, args: List[str]) -> str:
        if not args:
            channels = range(self.chip.params.num_dma_channels)
        else:
            channels = [int(args[0])]
        lines = []
        for ch in channels:
            status = self.chip.regs.dma_status(ch)
            lines.append(
                f"ch{ch}: {_STATUS_NAMES.get(status, status)} "
                f"table=0x{self.chip.regs.dma_desc_addr(ch):x} "
                f"count={self.chip.regs.dma_desc_count(ch)}")
        return "\n".join(lines)

    def _cmd_reset(self, args: List[str]) -> str:
        if len(args) != 2 or args[0] != "dma":
            return "usage: reset dma <channel>"
        channel = int(args[1])
        aborted = self.chip.dma.abort(channel)
        return (f"ch{channel}: abort requested"
                if aborted else f"ch{channel}: idle, nothing to abort")
