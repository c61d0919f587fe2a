"""Shared test configuration."""

import os
import tempfile

import pytest
from hypothesis import HealthCheck, settings

# Keep the suite hermetic: CLI invocations default to the persistent
# artifact cache, so point it at a throwaway directory for the whole
# test session instead of the user's ~/.cache.
os.environ.setdefault(
    "REPRO_CACHE_DIR", tempfile.mkdtemp(prefix="repro-test-cache-")
)

# Cache/trace property tests do real simulation work per example; give
# them room and keep CI deterministic.
settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# CI's deep runs (``pytest --hypothesis-profile=deep``) raise the budget
# of every property test that does not pin its own ``max_examples``.
settings.register_profile(
    "deep", parent=settings.get_profile("repro"), max_examples=2000
)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def serve_env():
    """A cheap binary plus two distinct profiles for repro.serve tests.

    Session-scoped: the program build is the expensive part and every
    serve test module shares it.  Returns ``(binary, [profile_a,
    profile_b])`` where the two profiles have different fingerprints.
    """
    import numpy as np

    from repro.db.instrument import CallEvent
    from repro.execution import CfgWalker
    from repro.osmodel import KernelCodeConfig, build_kernel_program
    from repro.profiles import PixieProfiler
    from repro.progen import AppCodeConfig, build_app_program

    program = build_app_program(
        AppCodeConfig(scale=0.5, filler_routines=10, filler_instructions=2_000)
    )
    kernel = build_kernel_program(
        KernelCodeConfig(scale=0.5, filler_routines=2, filler_instructions=500)
    )
    walker = CfgWalker(program, kernel)
    profiles = []
    for lo, hi in ((0, 200), (200, 360)):
        out = []
        for salt in range(lo, hi):
            walker.walk_event(CallEvent("txn_begin", {"salt": salt}), out)
        blocks = np.asarray(out, dtype=np.int64)
        profiler = PixieProfiler(program.binary)
        profiler.add_stream(blocks[blocks < walker.kernel_offset])
        profiles.append(profiler.profile())
    assert profiles[0].fingerprint() != profiles[1].fingerprint()
    return program.binary, profiles
