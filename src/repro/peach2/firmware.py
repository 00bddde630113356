"""NIOS management firmware.

The PEACH2 chip carries an Altera NIOS soft processor that "works only to
monitor and manage PEARL, except for the packet transfer" (§III-D).  The
model keeps per-port health/traffic state, detects cable loss, and renders
the kind of status report an operator would read over the board's
management interfaces (Gigabit Ethernet / RS-232C).

The **watchdog** is the active half of that mandate: a periodic NIOS task
that rescans link state and, when a ring cable (E/W port) has died,
reports the failure upward — to the firmware event log, the trace/metrics
hooks, and an optional ``on_ring_down`` callback.  The sub-cluster wires
that callback to :meth:`repro.tca.subcluster.TCASubCluster.heal`, closing
the PEARL detect→reroute loop without operator involvement (§III-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


@dataclass
class PortStatus:
    """Link state and traffic counters of one port, as NIOS sees them."""

    name: str
    role: str
    link_up: bool = False
    tlps_routed_out: int = 0


class NIOSFirmware:
    """Monitor/manage controller; never touches the data path."""

    #: Default NIOS health-check period (a soft processor polling loop).
    WATCHDOG_INTERVAL_PS = 50_000_000  # 50 us

    def __init__(self, chip):
        self.chip = chip
        self.events: List[str] = []
        self._port_status: Dict[int, PortStatus] = {}
        #: Called as ``on_ring_down(chip, link)`` when the watchdog finds
        #: a dead ring cable (set by TCASubCluster.enable_auto_heal).
        self.on_ring_down: Optional[Callable] = None
        self.watchdog_scans = 0
        self.ring_failures_seen = 0
        self._watchdog_running = False
        self._reported_down: set = set()

    def note_routed(self, out_port) -> None:
        """Data-path hook: count an egress packet (free-running counter)."""
        # NIOS reads these counters; it does not sit in the packet path.
        status = self._status_of(out_port)
        status.tlps_routed_out += 1

    def _status_of(self, port) -> PortStatus:
        status = self._port_status.get(id(port))
        if status is None:
            label = port.name.rsplit(".", 1)[-1]
            status = PortStatus(label, port.role.value)
            self._port_status[id(port)] = status
        return status

    def _all_ports(self):
        ports = [self.chip.port_n, self.chip.port_e, self.chip.port_w,
                 self.chip.port_s]
        for extra in ("port_t", "port_u", "port_d"):
            port = getattr(self.chip, extra, None)
            if port is not None:
                ports.append(port)
        return ports

    def _fabric_ports(self):
        """The cable-bearing ports the watchdog guards.

        E/W always (the paper's ring); on a torus chip the S/T and U/D
        dimension pairs are ring cables too, so they join the watch list.
        """
        ports = [self.chip.port_e, self.chip.port_w]
        if getattr(self.chip, "port_t", None) is not None:
            ports += [self.chip.port_s, self.chip.port_t]
        port_u = getattr(self.chip, "port_u", None)
        if port_u is not None:
            ports += [port_u, self.chip.port_d]
        return ports

    def scan_links(self) -> Dict[str, bool]:
        """Poll every port's link state; log transitions."""
        states: Dict[str, bool] = {}
        for port in self._all_ports():
            status = self._status_of(port)
            up = port.connected and port.link.up
            if up != status.link_up:
                verb = "up" if up else "DOWN"
                self.events.append(
                    f"[{self.chip.engine.now_ns:.0f}ns] link {status.name} {verb}")
            status.link_up = up
            states[status.name] = up
        return states

    # -- watchdog -----------------------------------------------------------

    def start_watchdog(self, interval_ps: Optional[int] = None,
                       on_ring_down: Optional[Callable] = None) -> None:
        """Start the periodic health-check task (idempotent).

        Every ``interval_ps`` the watchdog rescans link state and reports
        each newly dead ring cable (E/W port) once — to the event log,
        the trace/metrics hooks, and ``on_ring_down(chip, link)``.
        """
        if on_ring_down is not None:
            self.on_ring_down = on_ring_down
        if self._watchdog_running:
            return
        self._watchdog_running = True
        engine = self.chip.engine
        engine.process(
            self._watchdog(interval_ps or self.WATCHDOG_INTERVAL_PS),
            name=f"{self.chip.name}.watchdog")

    def stop_watchdog(self) -> None:
        """Stop the health-check task (it exits at its next wakeup).

        Must be called before draining the engine: a running watchdog
        keeps the event heap non-empty forever.
        """
        self._watchdog_running = False

    def _watchdog(self, interval_ps: int):
        engine = self.chip.engine
        while self._watchdog_running:
            yield interval_ps
            if not self._watchdog_running:
                return
            self.watchdog_scans += 1
            self.scan_links()
            for port in self._fabric_ports():
                if not port.connected:
                    continue
                link = port.link
                if link.up:
                    # Recovered: report again if it dies a second time.
                    self._reported_down.discard(link.name)
                    continue
                if link.name in self._reported_down:
                    continue
                self._reported_down.add(link.name)
                self.ring_failures_seen += 1
                self.events.append(
                    f"[{engine.now_ns:.0f}ns] watchdog: ring cable "
                    f"{link.name} down")
                if engine.tracer is not None:
                    engine.trace(self.chip.name, "watchdog-ring-down",
                                 link.name)
                if engine.metrics is not None:
                    engine.metrics.counter(
                        f"firmware.{self.chip.name}.ring_down_detected").inc()
                if self.on_ring_down is not None:
                    self.on_ring_down(self.chip, link)

    def health_report(self) -> str:
        """Operator-facing status text (as served over GbE/RS-232C)."""
        self.scan_links()
        regs = self.chip.regs
        lines = [
            f"PEACH2 {self.chip.name}: node_id={regs.node_id} "
            f"tca_base=0x{regs.tca_base:x}",
        ]
        for status in self._port_status.values():
            state = "up" if status.link_up else "down"
            lines.append(f"  port {status.name:<2} ({status.role:<12}) "
                         f"{state:<5} out_tlps={status.tlps_routed_out}")
        lines.append(f"  dma chains completed: "
                     f"{self.chip.dma.chains_completed}")
        lines.extend(f"  event: {event}" for event in self.events[-8:])
        return "\n".join(lines)
