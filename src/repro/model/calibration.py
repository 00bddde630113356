"""Calibration constants for the simulated HA-PACS/TCA hardware.

Every free timing parameter of the simulation lives here, next to the
paper anchor that pins it.  The anchors (all from Hanawa et al. 2013):

* Eq. (1): PCIe Gen2 x8 carries 4 Gbytes/s post-encoding; with MPS = 256 B
  and 24 B of per-packet framing the payload ceiling is 3.66 Gbytes/s.
* §IV-A1: 255-chained DMA write to local CPU memory peaks at ~3.3 Gbytes/s
  (93 % of ceiling) at 4 KB — fixes the DMA engine's per-TLP overhead.
* Fig. 9: 4 chained requests of 4 KB reach ~70 % of the peak — fixes the
  sum of doorbell/first-descriptor-fetch plus completion-interrupt cost at
  about 2 µs for a whole chain.
* §IV-A2: DMA read from GPU memory tops out at ~830 Mbytes/s — fixes the
  GPU BAR read-completion latency given the 4-deep completer pipeline.
* §IV-A2: DMA write across QPI collapses to a few hundred Mbytes/s — fixes
  the QPI P2P per-packet occupancy.
* §IV-B1 / Fig. 10: one 4-byte PIO store traverses CPU → PEACH2-A →
  cable → PEACH2-B → host memory in 782 ns — fixes the per-hop latencies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import ns


@dataclass(frozen=True)
class Calibration:
    """All tunable timing constants (picoseconds unless noted)."""

    # ---- fabric hop latencies (sum tuned to the 782 ns PIO anchor) -------
    # CPU core to root complex: store-buffer drain + RC ingress.
    cpu_store_issue_ps: int = ns(80)
    # Per-switch traversal (the PCIe switch embedded in the Xeon socket).
    switch_forward_ps: int = ns(50)
    switch_issue_interval_ps: int = ns(2)
    # On-board link (host <-> adapter edge connector), PHY + trace.
    local_link_latency_ps: int = ns(110)
    # External PCIe cable between PEACH2 boards (a few metres, repeaters).
    cable_link_latency_ps: int = ns(130)
    # PEACH2 ingress-to-egress relay: ~22 cycles of the 250 MHz fabric.
    peach2_route_latency_ps: int = ns(90)
    # PEACH2 crossbar issue interval (pipelined, far below wire pace).
    peach2_issue_interval_ps: int = ns(8)
    # Host memory-controller write visibility (store to poll-observable);
    # the decimals absorb rounding so the Fig. 10 path sums to 782 ns.
    host_mem_write_commit_ps: int = ns(48.222)

    # ---- memory completers -----------------------------------------------
    host_mem_read_latency_ps: int = ns(250)
    host_mem_max_reads: int = 8
    # GPU BAR1 read path goes through the GPU's PCIe-to-GDDR5 address
    # translation; 4-deep pipeline at ~1232 ns/request = ~830 Mbytes/s.
    gpu_bar_read_latency_ps: int = ns(1232)
    gpu_bar_max_reads: int = 4
    gpu_bar_write_commit_ps: int = ns(60)

    # ---- PEACH2 DMA controller --------------------------------------------
    # Added on top of wire serialization for every TLP the engine emits;
    # 256-B payload -> (280 B / 4 GB/s) + 7.6 ns = 77.6 ns/TLP = 3.30 GB/s.
    dma_per_tlp_overhead_ps: int = ns(7.6)
    # Engine wake-up after the doorbell register write lands (decode the
    # channel registers, arbitrate).  The descriptor-table fetch itself is
    # a real MRd round trip through the fabric, so the total
    # doorbell-to-first-data cost comes out near 1 µs as Fig. 9 implies.
    dma_engine_start_ps: int = ns(100)
    # Per-descriptor decode/setup; overlapped with the previous
    # descriptor's data streaming (two-stage engine pipeline), so it only
    # shows for descriptors shorter than ~1.6 KB — this is what bends the
    # small-message end of Fig. 7.
    dma_desc_setup_ps: int = ns(500)
    # Extra serial cost per *read* descriptor (scoreboard drain/sync of
    # the read engine): keeps DMA read visibly below DMA write at small
    # sizes while they converge at 4 KB, as Fig. 7 shows.
    dma_read_desc_turnaround_ps: int = ns(250)
    # Completion-interrupt handler entry (MSI delivery itself is simulated;
    # this is the kernel's IRQ-entry to TSC-read cost in the driver).
    irq_handler_entry_ps: int = ns(800)
    # Outstanding MRd window of the DMAC read engine.
    dma_max_outstanding_reads: int = 16
    # Gap between successive MRd issues.
    dma_read_issue_gap_ps: int = ns(10)
    # Per-completion ingest cost at the chip (scoreboard update + internal
    # memory write): paces DMA-read consumption to the same ~77.6 ns/TLP
    # the write engine runs at, so read never beats write (Fig. 7).
    dma_cpl_processing_ps: int = ns(77.6)
    # Per-descriptor stall the engine suffers when chaining writes toward
    # a *remote host* destination: the remote root complex's shallow
    # request queue forces a ring-egress round trip between descriptors.
    # The paper observes the effect but not the cause ("the reason for
    # this is unclear", §IV-B2: remote-GPU writes stream continuously, so
    # the GPU's deep request queue is assumed to absorb what the host
    # cannot) — this constant reproduces the observed Fig. 12 shape:
    # small-size remote-CPU bandwidth well below local, equal at 4 KB.
    dma_remote_desc_sync_ps: int = ns(650)
    # Descriptors fetched per table-read TLP (256 B / 32 B each).
    dma_desc_fetch_batch: int = 8
    # On-chip accesses (register file, internal packet memory).
    reg_read_latency_ps: int = ns(100)
    internal_read_latency_ps: int = ns(120)
    # Internal memory copy bandwidth (internal->internal descriptors).
    internal_copy_bytes_per_ps: float = 8e9 / 1e12  # 8 Gbytes/s

    # ---- CPU PIO streaming ---------------------------------------------------
    # The mmapped TCA window is mapped write-combining; the core drains
    # one 64-byte WC buffer roughly every 120 ns when streaming stores,
    # giving PIO a ~0.53 GB/s streaming ceiling — which is why §III-F
    # positions PIO for short messages and DMA for bulk.
    pio_wc_buffer_bytes: int = 64
    pio_wc_drain_gap_ps: int = ns(120)

    # ---- driver software ---------------------------------------------------
    driver_poll_interval_ps: int = ns(20)

    # ---- QPI ---------------------------------------------------------------
    qpi_latency_ps: int = ns(120)
    qpi_cpu_gap_ps: int = ns(4)
    qpi_p2p_gap_ps: int = ns(800)  # ~300 Mbytes/s at 256-B payloads

    # ---- payload/packet geometry -------------------------------------------
    mps_bytes: int = 256   # Max Payload Size of the evaluated platform
    mrrs_bytes: int = 256  # Max Read Request Size used by the DMAC


#: The default calibration used throughout the library.
CALIB = Calibration()
