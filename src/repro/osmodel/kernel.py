"""The kernel binary: Tru64-style syscall/scheduler/interrupt paths.

Kernel routines use the same DSL/IR as the application but live in
their own binary, placed at :data:`repro.ir.KERNEL_BASE` in the address space.
Entry points are the ``k.*`` events emitted by the engine (I/O, lock
yields) and by the multiprocessor model (quantum expiry, timer ticks).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.progen.builder import CompiledProgram, build_binary
from repro.progen.dsl import Loop, Node, RoutineSpec, Straight, SubCall
from repro.progen.library import generate_code_run

#: Kernel-internal helpers (statically called).
KERNEL_HELPERS = (
    "kh.copy", "kh.sched", "kh.vfs", "kh.blkio", "kh.intr", "kh.pmap",
)


@dataclass
class KernelCodeConfig:
    """Knobs for the generated kernel binary."""

    seed: int = 7
    scale: float = 1.0
    #: Cold kernel routines padding the image.
    filler_routines: int = 80
    filler_instructions: int = 40_000


def _helper_specs(rng: random.Random, scale: float) -> List[RoutineSpec]:
    specs = []
    for name in KERNEL_HELPERS:
        budget = max(10, int(rng.randint(30, 70) * scale))
        specs.append(
            RoutineSpec(
                name=name,
                body=generate_code_run(rng, budget, helpers=None),
                prologue=2,
                epilogue=2,
            )
        )
    return specs


def build_kernel_program(config: Optional[KernelCodeConfig] = None) -> CompiledProgram:
    """Build the kernel binary with every ``k.*`` entry point."""
    config = config or KernelCodeConfig()
    rng = random.Random(config.seed)

    def run(budget: int) -> List[Node]:
        return generate_code_run(rng, max(3, int(budget * scale)), helpers=KERNEL_HELPERS)

    scale = config.scale
    specs = _helper_specs(rng, scale)
    specs += [
        # Disk read syscall: trap, VFS, block layer, per-page copy-in.
        RoutineSpec("k.read", body=[
            *run(180),
            SubCall("kh.vfs"),
            *run(120),
            SubCall("kh.blkio"),
            Loop("pages", body=[SubCall("kh.copy"), *run(40)], size=4),
            *run(160),
        ]),
        # Disk/log write syscall.
        RoutineSpec("k.write", body=[
            *run(160),
            SubCall("kh.vfs"),
            *run(100),
            Loop("pages", body=[SubCall("kh.copy"), *run(35)], size=4),
            SubCall("kh.blkio"),
            *run(140),
        ]),
        # Voluntary yield (lock wait): scheduler + context switch.
        RoutineSpec("k.yield", body=[
            *run(140),
            SubCall("kh.sched"),
            *run(120),
            SubCall("kh.pmap"),
            *run(100),
        ]),
        # Involuntary context switch at quantum expiry.
        RoutineSpec("k.switch", body=[
            *run(120),
            SubCall("kh.intr"),
            *run(110),
            SubCall("kh.sched"),
            *run(130),
            SubCall("kh.pmap"),
            *run(90),
        ]),
        # Clock tick.
        RoutineSpec("k.timer", body=[
            *run(60),
            SubCall("kh.intr"),
            *run(70),
        ]),
    ]
    filler_rng = random.Random(config.seed ^ 0xBEEF)
    per_routine = max(
        10, config.filler_instructions // max(1, config.filler_routines)
    )
    for i in range(config.filler_routines):
        budget = max(10, int(filler_rng.gauss(per_routine, per_routine * 0.4)))
        body: List[Node] = []
        remaining = budget
        while remaining > 0:
            size = min(remaining, filler_rng.randint(20, 60))
            body.append(Straight(size))
            remaining -= size
        specs.append(RoutineSpec(name=f"kcold_{i:04d}", body=body))
    return build_binary(specs, name="vmunix.sim")
