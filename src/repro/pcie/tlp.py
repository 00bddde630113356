"""Transaction Layer Packets.

Only the packet kinds the paper's hardware exercises are modelled:

* ``MWR``  — posted Memory Write Request (the RDMA-put building block;
  PEACH2 restricts remote access to these, §III-F),
* ``MRD``  — non-posted Memory Read Request,
* ``CPLD`` — Completion with Data (the read reply PEACH2 deliberately does
  not implement for remote traffic),
* ``MSI``  — Message Signalled Interrupt, modelled as a tiny posted write
  toward the host interrupt logic (used for DMA-completion interrupts).

Payloads are numpy ``uint8`` arrays so every simulated transfer moves real
bytes end to end and can be verified for integrity.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import PCIeError

# Per-packet wire overhead from the paper's Eq. (1):
# 16 B TLP header (4-DW header w/ 64-bit address) + 2 B DLL sequence number
# + 4 B LCRC + 1 B start framing + 1 B stop framing.
TLP_HEADER_BYTES = 16
TLP_DLL_SEQ_BYTES = 2
TLP_LCRC_BYTES = 4
TLP_FRAMING_BYTES = 2
TLP_OVERHEAD_BYTES = (TLP_HEADER_BYTES + TLP_DLL_SEQ_BYTES + TLP_LCRC_BYTES
                      + TLP_FRAMING_BYTES)

_serial = itertools.count()


class TLPKind(enum.Enum):
    """Transaction layer packet type."""

    MWR = "MWr"
    MRD = "MRd"
    CPLD = "CplD"
    MSI = "MSI"


#: Kinds whose wire footprint includes the payload bytes.
_CARRIES_PAYLOAD = frozenset((TLPKind.MWR, TLPKind.CPLD, TLPKind.MSI))
#: Kinds that must carry a payload array of exactly ``length`` bytes.
_REQUIRES_PAYLOAD = frozenset((TLPKind.MWR, TLPKind.CPLD))


@dataclass(slots=True)
class TLP:
    """One transaction layer packet travelling through the fabric.

    ``address`` is the destination bus address for MWR/MRD/MSI; completions
    are routed by ``requester_id`` instead, as on real PCIe.  ``length`` is
    the payload length in bytes for MWR/CPLD, or the *requested* read length
    for MRD.  Slotted: tens of thousands of TLPs flow through one
    experiment, so the per-instance dict is measurable churn.
    """

    kind: TLPKind
    address: int = 0
    length: int = 0
    payload: Optional[np.ndarray] = None
    requester_id: int = 0
    tag: int = 0
    serial: int = field(default_factory=_serial.__next__)
    #: Framed wire footprint; computed once — every hop (port, link,
    #: switch, tracer) reads it.
    wire_bytes: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        length = self.length
        kind = self.kind
        if length < 0:
            raise PCIeError(f"negative TLP length {length}")
        if kind in _REQUIRES_PAYLOAD:
            payload = self.payload
            if payload is None:
                raise PCIeError(f"{kind.value} requires a payload")
            if len(payload) != length:
                raise PCIeError(
                    f"{kind.value} payload is {len(payload)} B "
                    f"but length says {length} B")
            self.wire_bytes = TLP_OVERHEAD_BYTES + length
        elif kind is TLPKind.MRD:
            if self.payload is not None:
                raise PCIeError("MRd must not carry a payload")
            self.wire_bytes = TLP_OVERHEAD_BYTES
        else:
            self.wire_bytes = (TLP_OVERHEAD_BYTES + length
                               if kind in _CARRIES_PAYLOAD
                               else TLP_OVERHEAD_BYTES)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"TLP({self.kind.value} addr=0x{self.address:x} "
                f"len={self.length} req={self.requester_id} tag={self.tag})")


def tlp_wire_bytes(kind: TLPKind, length: int) -> int:
    """Wire footprint of a packet: framing plus payload (if it carries one)."""
    payload = length if kind in _CARRIES_PAYLOAD else 0
    return TLP_OVERHEAD_BYTES + payload


def make_write(address: int, data: np.ndarray, requester_id: int = 0,
               tag: int = 0) -> TLP:
    """Build a posted Memory Write Request carrying ``data``."""
    data = np.ascontiguousarray(data, dtype=np.uint8)
    return TLP(TLPKind.MWR, address=address, length=len(data), payload=data,
               requester_id=requester_id, tag=tag)


def make_read(address: int, length: int, requester_id: int, tag: int) -> TLP:
    """Build a Memory Read Request for ``length`` bytes."""
    return TLP(TLPKind.MRD, address=address, length=length,
               requester_id=requester_id, tag=tag)


def make_completion(request: TLP, data: np.ndarray) -> TLP:
    """Build the Completion-with-Data answering ``request``."""
    if request.kind is not TLPKind.MRD:
        raise PCIeError("only MRd packets take completions")
    data = np.ascontiguousarray(data, dtype=np.uint8)
    return TLP(TLPKind.CPLD, address=request.address, length=len(data),
               payload=data, requester_id=request.requester_id,
               tag=request.tag)


def make_msi(address: int, vector: int, requester_id: int = 0) -> TLP:
    """Build a Message Signalled Interrupt write (4-byte payload)."""
    payload = np.frombuffer(int(vector).to_bytes(4, "little"), dtype=np.uint8)
    return TLP(TLPKind.MSI, address=address, length=4,
               payload=payload.copy(), requester_id=requester_id)
