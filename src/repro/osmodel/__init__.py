"""Kernel model: the Tru64-style OS binary and its entry points."""

from repro.osmodel.kernel import (
    KERNEL_HELPERS,
    KernelCodeConfig,
    build_kernel_program,
)

__all__ = [
    "KERNEL_HELPERS",
    "KernelCodeConfig",
    "build_kernel_program",
]
