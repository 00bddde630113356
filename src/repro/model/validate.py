"""Fast calibration self-check: are the paper anchors still true?

``validate_calibration()`` re-measures the cheap headline anchors (the
782 ns PIO path, the 3.3 GB/s chained-write peak, the 830 MB/s GPU-read
ceiling, Fig. 9's 70 %-at-4-requests) and reports pass/fail per anchor.
Run it after touching anything in :mod:`repro.model.calibration` or the
fabric timing — ``tca-bench validate`` from the command line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.units import KiB


@dataclass(frozen=True)
class AnchorResult:
    """One re-measured anchor."""

    name: str
    paper: float
    measured: float
    tolerance: float  # relative

    @property
    def ok(self) -> bool:
        """Within tolerance of the paper's value."""
        return abs(self.measured - self.paper) <= self.tolerance * self.paper

    def __str__(self) -> str:
        mark = "ok " if self.ok else "FAIL"
        return (f"[{mark}] {self.name}: paper={self.paper:g} "
                f"measured={self.measured:.4g} "
                f"(tol ±{self.tolerance * 100:.0f}%)")


def validate_calibration() -> List[AnchorResult]:
    """Re-measure the headline anchors; returns one result per anchor."""
    from repro.bench.harness import SingleNodeRig
    from repro.bench.loopback import LoopbackRig

    results: List[AnchorResult] = []

    latency_ns = LoopbackRig().pio_commit_latency_ns()
    results.append(AnchorResult("PIO one-way latency (ns, §IV-B1)",
                                782.0, latency_ns, 0.005))

    _, peak = SingleNodeRig().measure("write", "cpu", 4 * KiB, 255)
    results.append(AnchorResult("chained DMA write peak (GB/s, §IV-A1)",
                                3.3, peak, 0.03))

    _, gpu_read = SingleNodeRig().measure("read", "gpu", 4 * KiB, 255)
    results.append(AnchorResult("GPU DMA-read ceiling (GB/s, §IV-A2)",
                                0.83, gpu_read, 0.03))

    _, four = SingleNodeRig().measure("write", "cpu", 4 * KiB, 4)
    results.append(AnchorResult("4-request fraction of peak (Fig. 9)",
                                0.70, four / peak, 0.10))

    _, read_4k = SingleNodeRig().measure("read", "cpu", 4 * KiB, 255)
    results.append(AnchorResult("CPU read/write ratio at 4 KB (Fig. 7)",
                                1.0, read_4k / peak, 0.15))

    return results


def render_validation(results: List[AnchorResult]) -> str:
    """Human-readable report."""
    lines = [str(r) for r in results]
    passed = sum(r.ok for r in results)
    lines.append(f"{passed}/{len(results)} anchors within tolerance")
    return "\n".join(lines)
