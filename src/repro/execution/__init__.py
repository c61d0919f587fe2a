"""Execution model: CFG interpretation and the multiprocessor system."""

from repro.execution.interpreter import CfgWalker
from repro.execution.mp import (
    LOG_BASE,
    OltpSystem,
    PRIVATE_BASE,
    SystemConfig,
)
from repro.execution.trace import (
    CombinedAddressMap,
    CpuTrace,
    KERNEL_PID,
    SystemTrace,
)

__all__ = [
    "CfgWalker",
    "CombinedAddressMap",
    "CpuTrace",
    "KERNEL_PID",
    "LOG_BASE",
    "OltpSystem",
    "PRIVATE_BASE",
    "SystemConfig",
    "SystemTrace",
]
