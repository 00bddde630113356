"""System specification models for Tables I and II of the paper.

These are typed descriptions of the HA-PACS base cluster (Table I) and the
preliminary-evaluation testbed (Table II).  The benchmark harness renders
them in the paper's row format, and the node-assembly code derives
simulator configuration (GPU count, memory sizes, link generations) from
them so the "spec sheet" and the simulated machine cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class CPUSpec:
    """One CPU socket model."""

    model: str = "Intel Xeon-E5 2670"
    clock_ghz: float = 2.6
    cores: int = 8
    cache_mbytes: int = 20
    sockets: int = 2
    pcie_gen3_lanes_per_socket: int = 40

    @property
    def peak_gflops(self) -> float:
        """Peak double-precision GFlops (8 flops/cycle AVX on SNB-EP)."""
        return self.clock_ghz * self.cores * self.sockets * 8


@dataclass(frozen=True)
class GPUSpec:
    """One GPU model."""

    model: str = "NVIDIA Tesla M2090"
    clock_ghz: float = 1.3
    count: int = 4
    memory_gbytes: int = 6
    memory_type: str = "GDDR5"
    peak_gflops_each: float = 665.0
    architecture: str = "Fermi"
    cuda_cores: int = 512

    @property
    def peak_gflops(self) -> float:
        """Aggregate peak over all GPUs in the node."""
        return self.peak_gflops_each * self.count


K20_SPEC = GPUSpec(model="NVIDIA K20", clock_ghz=0.705, count=1,
                   memory_gbytes=5, peak_gflops_each=1170.0,
                   architecture="Kepler", cuda_cores=2496)


@dataclass(frozen=True)
class NodeSpec:
    """A compute node: CPUs + memory + GPUs + NIC."""

    cpu: CPUSpec = CPUSpec()
    memory_gbytes: int = 128
    memory_desc: str = "DDR3 1600 MHz x 4 ch, 128 Gbytes"
    gpu: GPUSpec = GPUSpec()
    interconnect: str = "Mellanox Connect-X3 Dual-port QDR"

    @property
    def cpu_peak_gflops(self) -> float:
        """CPU-side peak of the node."""
        return self.cpu.peak_gflops

    @property
    def gpu_peak_gflops(self) -> float:
        """GPU-side peak of the node."""
        return self.gpu.peak_gflops


@dataclass(frozen=True)
class ClusterSpec:
    """Table I: the HA-PACS base cluster."""

    node: NodeSpec = NodeSpec()
    num_nodes: int = 268
    storage: str = "Lustre File System 504 Tbytes"
    interconnect: str = "InfiniBand QDR 288 ports switch x 2"
    num_racks: int = 26
    max_power_kw: int = 408

    @property
    def total_peak_tflops(self) -> float:
        """Total system peak in TFlops."""
        per_node = self.node.cpu_peak_gflops + self.node.gpu_peak_gflops
        return per_node * self.num_nodes / 1000.0


HA_PACS_BASE_CLUSTER = ClusterSpec()


@dataclass(frozen=True)
class TestbedSpec:
    """Table II: the preliminary-evaluation environment."""

    cpu: CPUSpec = CPUSpec()
    memory_desc: str = "DDR3 1600 MHz x 4 ch, 128 Gbytes"
    motherboards: Tuple[str, ...] = ("SuperMicro X9DRG-QF", "Intel S2600IP")
    gpu: GPUSpec = K20_SPEC
    gpu_memory_desc: str = "GDDR5 2600 MHz, 5 Gbytes"
    board_desc: str = "16 layers (main) + eight layers (sub)"
    fpga: str = "Altera Stratix IV GX 530, 290 (EP4SGX{530,290}NF45C2N)"
    peach2_logic: str = "version 20121112"
    os: str = "Linux, CentOS 6.3"
    kernel: str = "kernel-2.6.32-279.{9,14,19}.1.el6.x86_64"
    gpu_driver: str = "NVIDIA-Linux-x86_64-304.{51,64}"
    programming_env: str = "CUDA 5.0"


TESTBED = TestbedSpec()


def render_table1(spec: ClusterSpec = HA_PACS_BASE_CLUSTER) -> str:
    """Table I in the paper's row order."""
    node = spec.node
    rows: List[Tuple[str, str]] = [
        ("CPU", f"{node.cpu.model} {node.cpu.clock_ghz} GHz x "
                f"{node.cpu.sockets} sockets"),
        ("", f"({node.cpu.cores} cores + {node.cpu.cache_mbytes}-Mbyte cache)"
             " / socket"),
        ("Memory", node.memory_desc),
        ("Peak performance", f"{node.cpu_peak_gflops:.1f} GFlops"),
        ("GPU", f"{node.gpu.model} {node.gpu.clock_ghz} GHz x {node.gpu.count}"),
        ("GPU Memory", f"{node.gpu.memory_type} {node.gpu.memory_gbytes} Gbytes / GPU"),
        ("GPU Peak performance", f"{node.gpu_peak_gflops:.0f} GFlops"),
        ("InfiniBand", node.interconnect),
        ("Number of nodes", str(spec.num_nodes)),
        ("Storage", spec.storage),
        ("Interconnect", spec.interconnect),
        ("Total peak performance", f"{spec.total_peak_tflops:.0f} TFlops"),
        ("Number of racks", str(spec.num_racks)),
        ("Maximum power consumption", f"{spec.max_power_kw} kW"),
    ]
    return _render_rows("Table I: HA-PACS base cluster", rows)


def render_table2(spec: TestbedSpec = TESTBED) -> str:
    """Table II in the paper's row order."""
    rows: List[Tuple[str, str]] = [
        ("CPU", f"{spec.cpu.model} {spec.cpu.clock_ghz} GHz x {spec.cpu.sockets}"),
        ("Memory", spec.memory_desc),
        ("Motherboard (a)", spec.motherboards[0]),
        ("Motherboard (b)", spec.motherboards[1]),
        ("GPU", f"{spec.gpu.model} {spec.gpu.cuda_cores} cores, "
                f"{int(spec.gpu.clock_ghz * 1000)} MHz"),
        ("GPU Memory", spec.gpu_memory_desc),
        ("PEACH2 prototype board", spec.board_desc),
        ("FPGA", spec.fpga),
        ("PEACH2 Logic", spec.peach2_logic),
        ("OS", spec.os),
        ("Kernel", spec.kernel),
        ("GPU Driver", spec.gpu_driver),
        ("Programming Environment", spec.programming_env),
    ]
    return _render_rows("Table II: test environment", rows)


def _render_rows(title: str, rows: List[Tuple[str, str]]) -> str:
    width = max(len(k) for k, _ in rows)
    lines = [title, "-" * len(title)]
    lines += [f"{k:<{width}} | {v}" for k, v in rows]
    return "\n".join(lines)
