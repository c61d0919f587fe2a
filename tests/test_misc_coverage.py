"""Small coverage tests for odds and ends across the package."""

import numpy as np
import pytest

from repro.analysis import capture_at
from repro.cache import CacheGeometry
from repro.errors import (
    BufferPoolError,
    DatabaseError,
    IRError,
    LayoutError,
    LockError,
    PageError,
    ProfileError,
    ReproError,
    SimulationError,
    TransactionError,
    WorkloadError,
)
from repro.ir import Binary, Procedure, Terminator
from repro.layout import ALL_COMBOS, PAPER_COMBOS
from repro.profiles import PixieProfiler


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        for exc in (IRError, LayoutError, ProfileError, DatabaseError,
                    PageError, BufferPoolError, LockError, TransactionError,
                    WorkloadError, SimulationError):
            assert issubclass(exc, ReproError)

    def test_db_errors_nest(self):
        assert issubclass(PageError, DatabaseError)
        assert issubclass(LockError, DatabaseError)


class TestComboConstants:
    def test_paper_combos_match_figure7_axis(self):
        assert PAPER_COMBOS == (
            "base", "porder", "chain", "chain+split", "chain+porder", "all"
        )

    def test_all_combos_superset(self):
        assert set(PAPER_COMBOS) < set(ALL_COMBOS)
        assert {"split", "hotcold"} < set(ALL_COMBOS)


class TestGeometryHelpers:
    def test_words_per_line(self):
        assert CacheGeometry(1024, 128, 1).words_per_line == 32
        assert CacheGeometry(1024, 16, 1).words_per_line == 4


class TestProfileCoverage:
    def make_profile(self):
        binary = Binary()
        proc = Procedure("p")
        proc.add_block("hot", 100, Terminator.COND_BRANCH, succs=("hot", "cold"))
        proc.add_block("cold", 100, Terminator.RETURN)
        binary.add_procedure(proc)
        binary.seal()
        profiler = PixieProfiler(binary)
        profiler.add_stream([0] * 9 + [1])
        return profiler.profile()

    def test_coverage_monotone(self):
        profile = self.make_profile()
        quarter = capture_at(profile, 200)
        half = capture_at(profile, 400)
        assert 0.0 <= quarter <= half <= 1.0

    def test_coverage_full_footprint(self):
        profile = self.make_profile()
        assert capture_at(profile, 800) == pytest.approx(1.0)

    def test_entry_bid(self):
        profile = self.make_profile()
        assert profile.binary.entry_bid("p") == 0
