"""CUDA-like runtime: device memory, memcpy engines, P2P tokens, UVA.

A deliberately small model of the CUDA 5 features the paper depends on:
``cuMemAlloc``, ``cuPointerGetAttribute(CU_POINTER_ATTRIBUTE_P2P_TOKENS)``
(§IV-A2 steps 1-2), host<->device copies via the GPU copy engines, and
``cudaMemcpyPeer`` within a node (§III-H).  Copies are synchronous
processes; there are no streams, since no experiment overlaps copies
with kernels.
"""

from repro.cuda.pointer import DevicePtr, P2PToken, CU_POINTER_ATTRIBUTE_P2P_TOKENS
from repro.cuda.runtime import CudaContext, CudaParams

__all__ = [
    "DevicePtr",
    "P2PToken",
    "CU_POINTER_ATTRIBUTE_P2P_TOKENS",
    "CudaContext",
    "CudaParams",
]
