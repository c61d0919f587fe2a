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
from repro.ir import WHOLE, Binary, Layout, Procedure, Terminator, baseline_layout
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
        bad = Layout(binary.table.names, (0, -1), [0], [0], [WHOLE], name="bad")
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
        assert loaded.ids.tolist() == [0, 1]


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


def split_binary():
    """``p``: b0 jumps to b1, which returns (two segments); ``q``: one
    block."""
    binary = Binary("split")
    p = Procedure("p")
    p.add_block("b0", 2, Terminator.UNCOND_BRANCH, ("b1",))
    p.add_block("b1", 2, Terminator.RETURN)
    binary.add_procedure(p)
    q = Procedure("q")
    q.add_block("b0", 2, Terminator.RETURN)
    binary.add_procedure(q)
    binary.seal()
    return binary


def claim_other_proc(units):
    units[0].update(name="q.seg0", proc_name="q", is_entry=False)


def misspell_name(units):
    units[0]["name"] = "p.seg00"


def repeat_name(units):
    units[1]["name"] = units[0]["name"]


def misflag_entry(units):
    units[1]["is_entry"] = True


#: Each decode refusal: the document edit and the one code it earns.
REFUSALS = [
    pytest.param(claim_other_proc, "LAY003", "foreign block", id="proc"),
    pytest.param(misspell_name, "LAY003", "plus", id="name"),
    pytest.param(repeat_name, "LAY003", "repeats", id="duplicate"),
    pytest.param(misflag_entry, "LAY004", "is_entry", id="entry"),
]


class TestLayoutDecodeRefusals:
    def document(self, binary, mutate=None):
        from repro.layout import split_source_order

        document = layout_to_dict(split_source_order(binary))
        assert [u["name"] for u in document["units"]] == ["p.seg0", "p.seg1", "q.seg0"]
        if mutate is not None:
            mutate(document["units"])
        return document

    def test_clean_document_decodes(self):
        binary = split_binary()
        document = self.document(binary)
        assert layout_to_dict(layout_from_dict(document, binary)) == document

    @pytest.mark.parametrize("mutate, code, words", REFUSALS)
    def test_decode_check_refuses(self, mutate, code, words):
        from repro.check.layout_checks import decode_layout

        binary = split_binary()
        layout, findings = decode_layout(binary, self.document(binary, mutate))
        assert layout is None
        assert {d.code for d in findings} == {code}
        assert words in findings[0].message

    @pytest.mark.parametrize("mutate, code, words", REFUSALS)
    def test_layout_from_dict_raises(self, mutate, code, words):
        binary = split_binary()
        with pytest.raises(LayoutError, match=words):
            layout_from_dict(self.document(binary, mutate), binary)

    @pytest.mark.parametrize("mutate, code, words", REFUSALS)
    def test_store_read_is_a_miss(self, mutate, code, words, tmp_path):
        import json

        binary = split_binary()
        store = ArtifactStore(tmp_path)
        path = store.prepare("fp", "layout-bad.json")
        path.write_text(json.dumps(self.document(binary, mutate)))
        assert store.load("fp", "layout-bad.json",
                          lambda path: load_layout(path, binary)) is None
