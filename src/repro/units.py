"""Unit helpers shared across the simulator.

Simulated time is kept as **integer picoseconds** so that event ordering is
exact and runs are bit-reproducible; public APIs usually speak nanoseconds
(floats) and convert at the boundary.  Data sizes are plain integers in
bytes; the helpers below exist so that call sites read like the paper
("4 Kbytes", "4 Gbytes/sec") instead of bare powers of two.
"""

from __future__ import annotations

# --- time ------------------------------------------------------------------

PS_PER_NS = 1_000
PS_PER_US = 1_000_000
PS_PER_MS = 1_000_000_000
PS_PER_S = 1_000_000_000_000


def ps(t: float) -> int:
    """Picoseconds (already the internal unit); rounds to int."""
    return int(round(t))


def ns(t: float) -> int:
    """Convert nanoseconds to internal picoseconds."""
    return int(round(t * PS_PER_NS))


def us(t: float) -> int:
    """Convert microseconds to internal picoseconds."""
    return int(round(t * PS_PER_US))


def ms(t: float) -> int:
    """Convert milliseconds to internal picoseconds."""
    return int(round(t * PS_PER_MS))


def to_s(t_ps: int) -> float:
    """Convert internal picoseconds to seconds."""
    return t_ps / PS_PER_S


# --- sizes -----------------------------------------------------------------

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB

KB = 1000
MB = 1000 * KB
GB = 1000 * MB


# --- rates -----------------------------------------------------------------


def transfer_ps(nbytes: int, bytes_per_ps: float) -> int:
    """Serialization time of ``nbytes`` at ``bytes_per_ps``, at least 1 ps."""
    if nbytes <= 0:
        return 0
    return max(1, int(round(nbytes / bytes_per_ps)))


def bw_gbytes_per_s(nbytes: int, elapsed_ps: int) -> float:
    """Observed bandwidth in Gbytes/sec (decimal) for a timed transfer."""
    if elapsed_ps <= 0:
        raise ValueError("elapsed time must be positive")
    return nbytes / GB / to_s(elapsed_ps)


def pretty_size(nbytes: int) -> str:
    """Human-readable size string using binary units, e.g. ``4K`` or ``512``."""
    if nbytes >= MiB and nbytes % MiB == 0:
        return f"{nbytes // MiB}M"
    if nbytes >= KiB and nbytes % KiB == 0:
        return f"{nbytes // KiB}K"
    return str(nbytes)
