"""Kernel-binary behaviour: entry-point walks and image properties."""

import numpy as np
import pytest

from repro.db.instrument import CallEvent
from repro.execution import CfgWalker
from repro.ir import KERNEL_BASE
from repro.osmodel import KernelCodeConfig, build_kernel_program
from repro.progen import AppCodeConfig, RoutineSpec, Straight, build_binary


@pytest.fixture(scope="module")
def walker():
    app = build_binary([RoutineSpec("r", body=[Straight(1)])], "app")
    kernel = build_kernel_program(KernelCodeConfig(scale=1.0))
    return CfgWalker(app, kernel)


def kernel_event(name, **bindings):
    event = CallEvent(name, dict(bindings))
    event.bindings.setdefault("salt", 3)
    return event


class TestKernelEntryPoints:
    @pytest.mark.parametrize("name,bindings", [
        ("k.read", {"pages": 1}),
        ("k.read", {"pages": 4}),
        ("k.write", {"pages": 1}),
        ("k.yield", {}),
        ("k.switch", {}),
        ("k.timer", {}),
    ])
    def test_entry_walks_cleanly(self, walker, name, bindings):
        out = []
        walker.walk_event(kernel_event(name, **bindings), out)
        blocks = np.asarray(out)
        assert len(blocks) > 3
        assert (blocks >= walker.kernel_offset).all()

    def test_page_count_scales_copy_loop(self, walker):
        one = []
        walker.walk_event(kernel_event("k.read", pages=1), one)
        many = []
        walker.walk_event(kernel_event("k.read", pages=8), many)
        assert len(many) > len(one)

    def test_syscall_paths_are_substantial(self, walker):
        """Syscall entries execute hundreds of instructions (the kernel
        stream must be able to interfere with the application)."""
        sizes = np.array(
            [b.size for b in walker.app.binary.blocks()]
            + [b.size for b in walker.kernel.binary.blocks()]
        )
        out = []
        walker.walk_event(kernel_event("k.read", pages=1), out)
        instructions = int(sizes[np.asarray(out)].sum())
        assert instructions > 200

    def test_timer_cheapest_entry(self, walker):
        sizes = np.array(
            [b.size for b in walker.app.binary.blocks()]
            + [b.size for b in walker.kernel.binary.blocks()]
        )

        def cost(name, **bindings):
            out = []
            walker.walk_event(kernel_event(name, **bindings), out)
            return int(sizes[np.asarray(out)].sum())

        assert cost("k.timer") < cost("k.switch")
        assert cost("k.timer") < cost("k.read", pages=1)

    def test_pseudo_random_paths_vary_with_salt(self, walker):
        a, b = [], []
        walker.walk_event(kernel_event("k.switch", salt=1), a)
        walker.walk_event(kernel_event("k.switch", salt=999_999), b)
        assert a != b  # different warm arms taken


class TestKernelImage:
    def test_kernel_scale_grows_image(self):
        small = build_kernel_program(KernelCodeConfig(scale=0.5, filler_routines=0))
        big = build_kernel_program(KernelCodeConfig(scale=3.0, filler_routines=0))
        assert big.binary.static_size > 2 * small.binary.static_size

    def test_kernel_deterministic(self):
        a = build_kernel_program(KernelCodeConfig(seed=4))
        b = build_kernel_program(KernelCodeConfig(seed=4))
        assert a.binary.static_size == b.binary.static_size
        assert a.binary.proc_order() == b.binary.proc_order()

    def test_base_leaves_room_for_app(self):
        from repro.progen import build_app_program

        app = build_app_program(AppCodeConfig(scale=10.0))
        assert app.binary.static_size * 4 < KERNEL_BASE
