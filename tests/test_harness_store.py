"""Tests for trace/profile serialization."""

import pickle

import numpy as np
import pytest

from repro.errors import IRError, LayoutError, SimulationError
from repro.execution.trace import CpuTrace, SystemTrace
from repro.harness.store import (
    ArtifactStore,
    layout_from_dict,
    layout_to_dict,
    load_layout,
    load_profile,
    load_program,
    load_trace,
    save_layout,
    save_profile,
    save_program,
    save_trace,
)
from repro.ir import Binary, CodeUnit, Layout, Procedure, Terminator, baseline_layout
from repro.profiles import PixieProfiler


def make_trace():
    return SystemTrace(
        cpus=[
            CpuTrace(
                blocks=np.array([0, 3, 1], dtype=np.int64),
                pids=np.array([0, 0, 1], dtype=np.int16),
            ),
            CpuTrace(
                blocks=np.array([2], dtype=np.int64),
                pids=np.array([2], dtype=np.int16),
            ),
        ],
        data_addresses=[np.array([64, 128], dtype=np.int64),
                        np.zeros(0, dtype=np.int64)],
        data_positions=[np.array([0, 2], dtype=np.int64),
                        np.zeros(0, dtype=np.int64)],
        kernel_offset=3,
        transactions=7,
    )


def make_binary():
    binary = Binary()
    proc = Procedure("p")
    proc.add_block("a", 4, Terminator.COND_BRANCH, succs=("a", "b"))
    proc.add_block("b", 2, Terminator.RETURN)
    binary.add_procedure(proc)
    binary.seal()
    return binary


class TestTraceRoundtrip:
    def test_roundtrip(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.kernel_offset == 3
        assert loaded.transactions == 7
        assert len(loaded.cpus) == 2
        for original, restored in zip(trace.cpus, loaded.cpus):
            assert np.array_equal(original.blocks, restored.blocks)
            assert np.array_equal(original.pids, restored.pids)
        assert np.array_equal(trace.data_addresses[0], loaded.data_addresses[0])

    def test_loaded_trace_usable(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.app_block_stream(0).tolist() == [0, 1]

    def test_wrong_file_rejected(self, tmp_path):
        path = tmp_path / "bogus.npz"
        np.savez_compressed(str(path), something=np.arange(3))
        with pytest.raises(SimulationError):
            load_trace(path)


class TestProfileRoundtrip:
    def test_roundtrip(self, tmp_path):
        binary = make_binary()
        profiler = PixieProfiler(binary)
        profiler.add_stream([0, 0, 1])
        profile = profiler.profile()
        path = tmp_path / "profile.npz"
        save_profile(profile, path)
        loaded = load_profile(binary, path)
        assert np.array_equal(loaded.block_counts, profile.block_counts)
        assert loaded.edge_counts == dict(profile.edge_counts)

    def test_stale_binary_rejected(self, tmp_path):
        binary = make_binary()
        profiler = PixieProfiler(binary)
        profiler.add_stream([0, 1])
        path = tmp_path / "profile.npz"
        save_profile(profiler.profile(), path)
        other = Binary()
        proc = Procedure("q")
        proc.add_block("only", 1, Terminator.RETURN)
        other.add_procedure(proc)
        other.seal()
        with pytest.raises(SimulationError):
            load_profile(other, path)

    def test_empty_profile_roundtrip(self, tmp_path):
        binary = make_binary()
        from repro.profiles import Profile

        path = tmp_path / "empty.npz"
        save_profile(Profile(binary), path)
        loaded = load_profile(binary, path)
        assert loaded.total_blocks_executed == 0
        assert loaded.edge_counts == {}


class TestLayoutRoundtrip:
    def test_foreign_block_id_is_a_store_miss(self, tmp_path):
        """A stored layout placing id -1 on a 2-block binary has two
        distinct ids, yet names no real block 1: readers must refuse it."""
        binary = make_binary()
        bad = Layout(units=[CodeUnit("p", "p", (0, -1))], name="bad")
        with pytest.raises(LayoutError):
            layout_from_dict(layout_to_dict(bad), binary)
        store = ArtifactStore(tmp_path)
        save_layout(bad, store.prepare("fp", "layout-bad.json"))
        assert store.load("fp", "layout-bad.json",
                          lambda path: load_layout(path, binary)) is None
        good = baseline_layout(binary)
        save_layout(good, store.prepare("fp", "layout-base.json"))
        loaded = store.load("fp", "layout-base.json",
                            lambda path: load_layout(path, binary))
        assert loaded.block_order() == [0, 1]


class TestProgramRoundtrip:
    def test_roundtrip_keeps_the_pickle(self, tmp_path):
        binary = make_binary()
        path = tmp_path / "app.pkl"
        save_program(binary, path)
        loaded = load_program(path)
        assert pickle.dumps(loaded) == pickle.dumps(binary)
        assert path.read_bytes().endswith(
            pickle.dumps(binary, protocol=pickle.HIGHEST_PROTOCOL)
        )

    def test_every_single_bit_flip_raises(self, tmp_path):
        path = tmp_path / "app.pkl"
        save_program(make_binary(), path)
        data = path.read_bytes()
        for position in range(len(data)):
            for bit in (0x01, 0x80):
                damaged = bytearray(data)
                damaged[position] ^= bit
                path.write_bytes(bytes(damaged))
                with pytest.raises(IRError):
                    load_program(path)

    def test_unframed_pickle_raises(self, tmp_path):
        """A file from before the checksum is a one-time miss."""
        path = tmp_path / "app.pkl"
        path.write_bytes(pickle.dumps(make_binary(), protocol=pickle.HIGHEST_PROTOCOL))
        with pytest.raises(IRError, match="not a compiled program"):
            load_program(path)
