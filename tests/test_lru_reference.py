"""Differential tests: every LRU level against a textbook reference.

:class:`ReferenceCache` is the oracle: one ``OrderedDict`` per set,
stepped one access at a time, reporting hit or miss and the victim of
every access, and the word counts and lifetime of every residency.  The
models below build each level's expected result from it by walking the
fetch spans one instruction at a time, and the hypothesis tests compare
them with ``lru_pass`` and everything derived from it.
"""

from collections import OrderedDict
from typing import List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cache import CacheGeometry
from repro.errors import SimulationError
from repro.ir import DATA_BASE, INSTRUCTION_BYTES, KERNEL_BASE
from repro.sim import (
    APP,
    KERNEL,
    dcache_result,
    itlb_result,
    l2_result,
    lru_pass,
    lru_result,
    simulate_l1i_misses,
    simulate_stream_buffers,
    simulate_victim_cache,
)


class ReferenceCache:
    """Set-associative LRU cache, one ``OrderedDict`` per set (least
    recently used first)."""

    def __init__(self, num_sets: int, assoc: int, words_per_line: int = 1) -> None:
        self.num_sets = num_sets
        self.assoc = assoc
        self.words_per_line = words_per_line
        self.sets = [OrderedDict() for _ in range(num_sets)]
        self.clock = 0
        #: ``(word_counts, lifetime)`` of every finished residency.
        self.residencies: List[Tuple[List[int], int]] = []

    def access(self, line: int, words=()) -> Tuple[bool, Optional[int]]:
        """Touch ``line`` (fetching ``words`` of it); ``(hit, victim)``."""
        self.clock += 1
        cache = self.sets[line % self.num_sets]
        victim = None
        hit = line in cache
        if hit:
            cache.move_to_end(line)
        else:
            if len(cache) >= self.assoc:
                victim, entry = cache.popitem(last=False)
                self._retire(entry)
            cache[line] = {"loaded": self.clock, "words": [0] * self.words_per_line}
        for word in words:
            cache[line]["words"][word] += 1
        return hit, victim

    def _retire(self, entry) -> None:
        self.residencies.append((entry["words"], self.clock - entry["loaded"]))

    def finish(self) -> List[Tuple[List[int], int]]:
        """Retire every resident line; all residencies of the run."""
        for cache in self.sets:
            for entry in cache.values():
                self._retire(entry)
            cache.clear()
        return self.residencies


def line_accesses(starts, counts, line_bytes):
    """``(line, words, span)`` per line each span touches, found by
    walking every instruction."""
    words_per_line = line_bytes // INSTRUCTION_BYTES
    accesses = []
    for span, (start, count) in enumerate(zip(starts.tolist(), counts.tolist())):
        for k in range(count):
            line, word = divmod(start // INSTRUCTION_BYTES + k, words_per_line)
            if accesses and accesses[-1][2] == span and accesses[-1][0] == line:
                accesses[-1][1].append(word)
            else:
                accesses.append((line, [word], span))
    return accesses


def collapsed(accesses):
    """Drop accesses that repeat the previous access's line."""
    kept = []
    for access in accesses:
        if not kept or kept[-1][0] != access[0]:
            kept.append(access)
    return kept


def reference_misses(lines, num_sets, assoc):
    """``(miss_at, victims)`` as :func:`repro.sim.lru_pass` reports them."""
    cache = ReferenceCache(num_sets, assoc)
    miss_at, victims = [], []
    for i, line in enumerate(lines):
        hit, victim = cache.access(line)
        if not hit:
            miss_at.append(i)
            victims.append(-1 if victim is None else victim)
    return miss_at, victims


def window_rates(missed: List[bool], window: int) -> List[float]:
    """Miss rate of every ``window`` accesses, the partial tail included."""
    if len(missed) <= window:
        return []
    return [
        sum(missed[lo : lo + window]) / len(missed[lo : lo + window])
        for lo in range(0, len(missed), window)
    ]


def reference_lru(streams, geometry: CacheGeometry, detail: bool):
    """Everything :func:`repro.sim.lru_result` reports, plus the window
    miss-rate series, from per-CPU reference caches."""
    kernel_line = KERNEL_BASE // geometry.line_bytes
    words = geometry.words_per_line
    out = {
        "misses": 0,
        "accesses": 0,
        "misses_app": 0,
        "misses_kernel": 0,
        "cold": {APP: 0, KERNEL: 0},
        "counts": {APP: {APP: 0, KERNEL: 0}, KERNEL: {APP: 0, KERNEL: 0}},
        "unique_words": [0] * (words + 1),
        "word_reuse": [0] * 16,
        "lifetimes": [0] * 35,
        "lines_loaded": 0,
        "words_loaded": 0,
        "words_used": 0,
        "missed": [],
    }
    for starts, counts in streams:
        cache = ReferenceCache(geometry.num_sets, geometry.assoc, words)
        accesses = line_accesses(starts, counts, geometry.line_bytes)
        if not detail:
            accesses = collapsed(accesses)
        missed = []
        for line, used_words, _ in accesses:
            hit, victim = cache.access(line, used_words if detail else ())
            missed.append(not hit)
            if hit:
                continue
            space = KERNEL if line >= kernel_line else APP
            out["misses_app" if space == APP else "misses_kernel"] += 1
            if victim is None:
                out["cold"][space] += 1
            else:
                owner = KERNEL if victim >= kernel_line else APP
                out["counts"][space][owner] += 1
        out["missed"].append(missed)
        out["accesses"] += len(missed)
        out["misses"] += sum(missed)
        if not detail:
            continue
        for word_counts, lifetime in cache.finish():
            used = sum(1 for count in word_counts if count)
            out["unique_words"][used] += 1
            out["lines_loaded"] += 1
            out["words_loaded"] += words
            out["words_used"] += used
            for count in word_counts:
                out["word_reuse"][min(count, 15)] += 1
            out["lifetimes"][min(34, max(0, lifetime.bit_length() - 1))] += 1
    return out


def reference_refills(starts, counts, geometry: CacheGeometry):
    """The L1I refill stream: ``(line address, span)`` per miss."""
    cache = ReferenceCache(geometry.num_sets, geometry.assoc)
    refills = []
    for line, _, span in collapsed(line_accesses(starts, counts, geometry.line_bytes)):
        if not cache.access(line)[0]:
            refills.append((line * geometry.line_bytes, span))
    return refills


def reference_l2(refill_streams, geometry: CacheGeometry, physical: bool):
    """``(misses_instr, misses_data, missed)`` of one shared L2."""
    merged = []
    for cpu, (addresses, positions) in enumerate(refill_streams):
        for address, position in zip(addresses.tolist(), positions.tolist()):
            merged.append((position, cpu, len(merged), address))
    merged.sort()
    frames = {}
    cache = ReferenceCache(geometry.num_sets, geometry.assoc)
    misses = {False: 0, True: 0}
    missed = []
    for _, _, _, address in merged:
        is_data = address >= DATA_BASE
        if physical:
            frame = frames.setdefault(address >> 13, len(frames))
            address = (frame << 13) | (address & 8191)
        hit, _ = cache.access(address // geometry.line_bytes)
        missed.append(not hit)
        if not hit:
            misses[is_data] += 1
    return misses[False], misses[True], missed


def reference_itlb(streams, entries: int, page_bytes: int):
    """``(misses, accesses, missed per stream)`` of per-CPU iTLBs."""
    totals = [0, 0, []]
    for starts, counts in streams:
        pages = []
        for start, count in zip(starts.tolist(), counts.tolist()):
            for k in range(count):
                page = (start + k * INSTRUCTION_BYTES) // page_bytes
                if not pages or pages[-1] != page:
                    pages.append(page)
        tlb = ReferenceCache(1, entries)
        missed = [not tlb.access(page)[0] for page in pages]
        totals[0] += sum(missed)
        totals[1] += len(missed)
        totals[2].append(missed)
    return totals


def reference_victim(starts, counts, geometry: CacheGeometry, entries: int):
    """``(accesses, raw misses, victim hits)`` of an L1 plus a
    fully-associative victim buffer fed by its evictions."""
    cache = ReferenceCache(geometry.num_sets, geometry.assoc)
    buffer = OrderedDict()
    accesses = collapsed(line_accesses(starts, counts, geometry.line_bytes))
    raw = hits = 0
    for line, _, _ in accesses:
        hit, evicted = cache.access(line)
        if hit:
            continue
        raw += 1
        if line in buffer:
            del buffer[line]
            hits += 1
        if evicted is not None:
            buffer[evicted] = True
            if len(buffer) > entries:
                buffer.popitem(last=False)
    return len(accesses), raw, hits


def reference_stream_buffers(starts, counts, geometry, num_buffers, depth):
    """``(accesses, raw misses, stream hits)`` of an L1 backed by
    sequential stream buffers matched at their head."""
    cache = ReferenceCache(geometry.num_sets, geometry.assoc)
    heads = [[-1, 0] for _ in range(num_buffers)]  # [next line, lines left]
    recency = list(range(num_buffers))  # most recent first
    accesses = collapsed(line_accesses(starts, counts, geometry.line_bytes))
    raw = hits = 0
    for line, _, _ in accesses:
        if cache.access(line)[0]:
            continue
        raw += 1
        found = [i for i, (head, left) in enumerate(heads) if left and head == line]
        if found:
            index = found[0]
            hits += 1
            heads[index] = [line + 1, heads[index][1] - 1]
        else:
            index = recency[-1]
            heads[index] = [line + 1, depth]
        recency.remove(index)
        recency.insert(0, index)
    return len(accesses), raw, hits


# -- strategies ----------------------------------------------------------------


@st.composite
def geometries(draw, max_assoc=8):
    """Caches of 1-16 sets (1 set = fully associative) and 1-8 ways."""
    num_sets = draw(st.integers(min_value=1, max_value=16))
    assoc = draw(st.integers(min_value=1, max_value=max_assoc))
    line_bytes = draw(st.sampled_from([16, 32, 64, 128]))
    return CacheGeometry(num_sets * assoc * line_bytes, line_bytes, assoc)


@st.composite
def span_streams(draw, max_spans=40):
    """Fetch spans over small app and kernel regions (so lines of both
    spaces share sets), zero-length spans included."""
    n = draw(st.integers(min_value=0, max_value=max_spans))
    base = st.sampled_from([0, KERNEL_BASE])
    word = st.integers(min_value=0, max_value=600)
    starts = [draw(base) + INSTRUCTION_BYTES * draw(word) for _ in range(n)]
    counts = draw(st.lists(st.integers(min_value=0, max_value=40), min_size=n, max_size=n))
    return np.array(starts, dtype=np.int64), np.array(counts, dtype=np.int64)


def cpu_streams(max_cpus=3):
    return st.lists(span_streams(), min_size=1, max_size=max_cpus)


@st.composite
def refill_streams(draw):
    """Per-CPU ``(addresses, positions)`` of instruction and data refills
    with colliding positions."""
    streams = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        n = draw(st.integers(min_value=0, max_value=60))
        base = st.sampled_from([0, DATA_BASE])
        offset = st.integers(min_value=0, max_value=40_000)
        addresses = [draw(base) + draw(offset) for _ in range(n)]
        positions = draw(st.lists(st.integers(0, 30), min_size=n, max_size=n))
        streams.append((np.array(addresses, np.int64), np.array(positions, np.int64)))
    return streams


@pytest.fixture
def clean_obs():
    obs.disable()
    obs.reset_metrics()
    yield
    obs.disable()
    obs.reset_metrics()


# -- lru_pass --------------------------------------------------------------------


@settings(max_examples=150)
@given(
    st.lists(st.integers(min_value=0, max_value=40), max_size=120),
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=1, max_value=8),
)
def test_lru_pass_matches_reference(lines, num_sets, assoc):
    miss_at, victims = lru_pass(np.array(lines, dtype=np.int64), num_sets, assoc)
    expected_at, expected_victims = reference_misses(lines, num_sets, assoc)
    assert miss_at.tolist() == expected_at
    assert victims.tolist() == expected_victims


def test_lru_pass_empty_stream():
    miss_at, victims = lru_pass(np.zeros(0, dtype=np.int64), 4, 2)
    assert miss_at.tolist() == [] and victims.tolist() == []


def check_lru_pass(lines, num_sets, assoc):
    """``lru_pass`` equals the reference, returns ascending int64 misses
    with int64 victims, and leaves its input alone; returns its output."""
    array = np.array(lines, dtype=np.int64)
    miss_at, victims = lru_pass(array, num_sets, assoc)
    assert array.tolist() == lines
    assert miss_at.dtype == np.int64 and victims.dtype == np.int64
    assert (np.diff(miss_at) > 0).all()
    expected_at, expected_victims = reference_misses(lines, num_sets, assoc)
    assert miss_at.tolist() == expected_at
    assert victims.tolist() == expected_victims
    return miss_at, victims


#: Set counts on both sides of the 16-bit sort key, besides 1-16.
WIDE_SET_COUNTS = [65_535, 65_536, 65_537, 131_072]


@st.composite
def set_conflicts(draw, num_sets):
    """Lines of a few sets (the first, the last and their neighbours),
    several tags per set, so every set sees conflicts."""
    sets = sorted({0, 1, num_sets - 2, num_sets - 1} & set(range(num_sets)))
    slot = st.tuples(st.sampled_from(sets), st.integers(min_value=0, max_value=5))
    return [s + num_sets * tag for s, tag in draw(st.lists(slot, max_size=80))]


@settings(max_examples=40)
@given(st.data(), st.sampled_from(WIDE_SET_COUNTS), st.integers(min_value=1, max_value=4))
def test_lru_pass_wide_set_counts(data, num_sets, assoc):
    check_lru_pass(data.draw(set_conflicts(num_sets)), num_sets, assoc)


@settings(max_examples=100)
@given(
    st.data(),
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=1, max_value=4),
)
def test_lru_pass_mru_runs_across_sets(data, num_sets, assoc):
    """Long runs repeating one set's MRU line, interleaved with other
    sets, so a set's repeats are not always adjacent in the stream."""
    run = st.tuples(
        st.integers(min_value=0, max_value=3),  # set
        st.integers(min_value=0, max_value=3),  # tag
        st.integers(min_value=1, max_value=25),  # length
    )
    lines = []
    for set_index, tag, length in data.draw(st.lists(run, max_size=12)):
        lines += [set_index % num_sets + num_sets * tag] * length
    check_lru_pass(lines, num_sets, assoc)


@settings(max_examples=60)
@given(st.data(), st.integers(min_value=1, max_value=4), st.integers(min_value=2, max_value=64))
def test_lru_pass_assoc_above_distinct_lines(data, num_sets, assoc):
    """Fewer distinct lines than ways: only first touches miss."""
    pool = st.integers(min_value=0, max_value=assoc - 2)
    lines = data.draw(st.lists(pool, max_size=100))
    miss_at, victims = check_lru_pass(lines, num_sets, assoc)
    assert len(miss_at) == len(set(lines)) and (victims == -1).all()


@settings(max_examples=80)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([0, KERNEL_BASE // 64, DATA_BASE // 64]),
            st.integers(min_value=0, max_value=48),
        ),
        max_size=100,
    ),
    st.sampled_from([1, 2, 3, 4, 16, 64, 65_536, 65_537]),
    st.integers(min_value=1, max_value=8),
)
def test_lru_pass_kernel_and_data_lines(offsets, num_sets, assoc):
    check_lru_pass([base + offset for base, offset in offsets], num_sets, assoc)


@pytest.mark.parametrize(
    "num_sets, assoc, bad",
    [(4, 0, "assoc"), (0, 2, "num_sets"), (-3, 2, "num_sets"), (4, -1, "assoc")],
)
def test_lru_pass_rejects_bad_geometry(num_sets, assoc, bad):
    lines = np.arange(8, dtype=np.int64)
    value = num_sets if bad == "num_sets" else assoc
    with pytest.raises(SimulationError, match=f"{bad} >= 1, got {value}"):
        lru_pass(lines, num_sets, assoc)


# -- L1I ---------------------------------------------------------------------------


@settings(max_examples=80)
@given(cpu_streams(), geometries(), st.booleans())
def test_lru_result_matches_reference(streams, geometry, detail):
    result = lru_result(streams, geometry, detail=detail)
    expected = reference_lru(streams, geometry, detail)
    assert result.misses == expected["misses"]
    assert result.accesses == expected["accesses"]
    assert result.misses_app == expected["misses_app"]
    assert result.misses_kernel == expected["misses_kernel"]
    assert result.interference.cold == expected["cold"]
    assert result.interference.counts == expected["counts"]
    if not detail:
        assert result.locality is None
        return
    locality = result.locality
    assert locality.unique_words.tolist() == expected["unique_words"]
    assert locality.word_reuse.tolist() == expected["word_reuse"]
    assert locality.lifetimes.tolist() == expected["lifetimes"]
    assert locality.lines_loaded == expected["lines_loaded"]
    assert locality.words_loaded == expected["words_loaded"]
    assert locality.words_used == expected["words_used"]


@settings(max_examples=60)
@given(span_streams(), geometries())
def test_l1i_refill_stream_matches_reference(stream, geometry):
    addresses, positions = simulate_l1i_misses(*stream, geometry)
    expected = reference_refills(*stream, geometry)
    assert list(zip(addresses.tolist(), positions.tolist())) == expected


# -- L1D and L2 ------------------------------------------------------------------


@settings(max_examples=60)
@given(
    st.lists(st.integers(min_value=0, max_value=4000), max_size=100),
    geometries(),
    st.booleans(),
)
def test_l1d_refill_stream_matches_reference(addresses, geometry, with_positions):
    addresses = np.array(addresses, dtype=np.int64)
    positions = np.arange(len(addresses), dtype=np.int64) * 3 if with_positions else None
    result = dcache_result(addresses, geometry, positions)
    if positions is None:
        positions = np.arange(len(addresses))
    cache = ReferenceCache(geometry.num_sets, geometry.assoc)
    expected = []
    for address, position in zip(addresses.tolist(), positions.tolist()):
        line = address // geometry.line_bytes
        if not cache.access(line)[0]:
            expected.append((line * geometry.line_bytes, position))
    assert result.accesses == len(addresses)
    assert result.misses == len(expected)
    refills = zip(result.miss_addresses.tolist(), result.miss_positions.tolist())
    assert list(refills) == expected


@settings(max_examples=60)
@given(refill_streams(), geometries(), st.booleans())
def test_l2_matches_reference(streams, geometry, physical):
    result = l2_result(streams, geometry, physical=physical)
    instr, data, missed = reference_l2(streams, geometry, physical)
    assert result.accesses == len(missed)
    assert (result.misses_instr, result.misses_data) == (instr, data)


# -- iTLB ------------------------------------------------------------------------


@settings(max_examples=60)
@given(
    cpu_streams(),
    st.integers(min_value=1, max_value=8),
    st.sampled_from([64, 256, 8192]),
)
def test_itlb_matches_reference(streams, entries, page_bytes):
    result = itlb_result(streams, entries=entries, page_bytes=page_bytes)
    misses, accesses, _ = reference_itlb(streams, entries, page_bytes)
    assert (result.misses, result.accesses) == (misses, accesses)


# -- victim cache and stream buffers -----------------------------------------------


@settings(max_examples=60)
@given(span_streams(), geometries(), st.integers(min_value=1, max_value=6))
def test_victim_cache_matches_reference(stream, geometry, entries):
    result = simulate_victim_cache(*stream, geometry, entries)
    accesses, raw, hits = reference_victim(*stream, geometry, entries)
    assert (result.accesses, result.raw_misses, result.victim_hits) == (
        accesses, raw, hits,
    )
    assert result.misses == raw - hits


@settings(max_examples=60)
@given(
    span_streams(),
    geometries(),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
)
def test_stream_buffers_match_reference(stream, geometry, num_buffers, depth):
    result = simulate_stream_buffers(*stream, geometry, num_buffers, depth)
    accesses, raw, hits = reference_stream_buffers(
        *stream, geometry, num_buffers, depth
    )
    assert (result.accesses, result.raw_misses, result.stream_hits) == (
        accesses, raw, hits,
    )
    assert result.misses == raw - hits


# -- the window rule ---------------------------------------------------------------


def _series_points(name):
    snapshot = obs.registry().snapshot().get(name)
    return [value for _, value in snapshot["points"]] if snapshot else []


@pytest.mark.parametrize("window", [1, 7, 64, 10_000])
def test_every_level_records_every_window(clean_obs, window):
    """Each level records ceil(accesses / window) points, the partial
    last window included, and none when one window covers the stream."""
    rng = np.random.default_rng(5)
    starts = (rng.integers(0, 3000, size=200) * INSTRUCTION_BYTES).astype(np.int64)
    counts = rng.integers(1, 30, size=200)
    stream = (starts, counts)
    geometry = CacheGeometry(2048, 64, 2)
    obs.enable(window=window)

    for detail in (False, True):
        obs.reset_metrics()
        result = lru_result([stream], geometry, detail=detail)
        expected = reference_lru([stream], geometry, detail)["missed"][0]
        points = _series_points("icache.window_miss_rate")
        assert len(points) == (-(-result.accesses // window) if result.accesses > window else 0)
        assert points == window_rates(expected, window)

    obs.reset_metrics()
    refills = [simulate_l1i_misses(starts, counts, geometry)]
    l2 = l2_result(refills, CacheGeometry(1024, 64, 2))
    points = _series_points("l2.window_miss_rate")
    assert len(points) == (-(-l2.accesses // window) if l2.accesses > window else 0)
    expected = reference_l2(refills, CacheGeometry(1024, 64, 2), True)[2]
    assert points == window_rates(expected, window)

    obs.reset_metrics()
    tlb = itlb_result([stream], entries=4, page_bytes=256)
    points = _series_points("itlb.window_miss_rate")
    assert len(points) == (-(-tlb.accesses // window) if tlb.accesses > window else 0)
    expected = reference_itlb([stream], 4, 256)[2][0]
    assert points == window_rates(expected, window)
