"""Two-tier layout-cache behaviour: LRU, disk promotion, persistence."""

import json

import pytest

from repro.harness.store import ArtifactStore, layout_to_dict
from repro.layout import SpikeOptimizer
from repro.serve.cache import LayoutCache, encode_layout
from repro.serve.server import serve_counters


@pytest.fixture(scope="module")
def binary(serve_env):
    return serve_env[0]


@pytest.fixture(scope="module")
def layouts(serve_env):
    """``all`` layouts for both profiles, keyed by fingerprint."""
    binary, profiles = serve_env
    return {
        profile.fingerprint(): SpikeOptimizer(binary, profile).layout("all")
        for profile in profiles
    }


def passes(_layout):
    return True


def counted(before, name):
    """How far the ``serve.cache_<name>`` counter moved since ``before``."""
    name = f"serve.cache_{name}"
    return serve_counters().get(name, 0) - before.get(name, 0)


def test_memory_tier_round_trip(binary, layouts):
    cache = LayoutCache(binary)
    fp, layout = next(iter(layouts.items()))
    before = serve_counters()
    assert cache.get(fp, "all", passes) == (None, "")
    encoded = cache.put(fp, "all", layout)
    assert json.loads(encoded) == layout_to_dict(layout)
    got, tier = cache.get(fp, "all", passes)
    assert tier == "memory"
    assert got is encoded
    assert counted(before, "hits") == 1
    assert counted(before, "misses") == 1
    assert len(cache) == 1


def test_lru_eviction_order(binary, layouts):
    cache = LayoutCache(binary, memory_entries=2)
    fp, layout = next(iter(layouts.items()))
    before = serve_counters()
    cache.put(fp, "base", layout)
    cache.put(fp, "hotcold", layout)
    # Touch "base" so "hotcold" becomes the least recently used entry.
    assert cache.get(fp, "base", passes)[1] == "memory"
    cache.put(fp, "all", layout)
    assert len(cache) == 2
    assert cache.get(fp, "hotcold", passes) == (None, "")
    assert cache.get(fp, "base", passes)[1] == "memory"
    assert cache.get(fp, "all", passes)[1] == "memory"
    assert counted(before, "evictions") == 1


def test_disk_tier_promotes_to_memory(binary, layouts, tmp_path):
    store = ArtifactStore(tmp_path)
    fp, layout = next(iter(layouts.items()))
    LayoutCache(binary, store).put(fp, "all", layout)
    assert store.has(fp, "serve-layout-all.json")

    # A fresh cache (fresh process, conceptually) hits the disk tier...
    reborn = LayoutCache(binary, store)
    before = serve_counters()
    got, tier = reborn.get(fp, "all", passes)
    assert tier == "disk"
    assert got == encode_layout(layout)
    # ...and the hit is promoted into the memory tier.
    assert reborn.get(fp, "all", passes)[1] == "memory"
    assert counted(before, "disk_hits") == 1 and counted(before, "hits") == 1


def test_disk_entry_failing_the_gate_is_not_promoted(binary, layouts, tmp_path):
    store = ArtifactStore(tmp_path)
    fp, layout = next(iter(layouts.items()))
    LayoutCache(binary, store).put(fp, "all", layout)
    reborn = LayoutCache(binary, store)
    before = serve_counters()
    seen = []

    def rejects(candidate):
        seen.append(candidate)
        return False

    # Every lookup re-reads and re-gates the disk entry; none is served.
    assert reborn.get(fp, "all", rejects) == (None, "")
    assert reborn.get(fp, "all", rejects) == (None, "")
    assert [layout_to_dict(c) for c in seen] == [layout_to_dict(layout)] * 2
    assert len(reborn) == 0
    assert [
        counted(before, name) for name in ("hits", "disk_hits", "misses")
    ] == [0, 0, 2]


def test_distinct_fingerprints_do_not_collide(binary, layouts, tmp_path):
    cache = LayoutCache(binary, ArtifactStore(tmp_path))
    (fp_a, layout_a), (fp_b, layout_b) = layouts.items()
    cache.put(fp_a, "all", layout_a)
    cache.put(fp_b, "all", layout_b)
    assert cache.get(fp_a, "all", passes)[0] == encode_layout(layout_a)
    assert cache.get(fp_b, "all", passes)[0] == encode_layout(layout_b)


def test_read_only_store_degrades_to_memory(binary, layouts, tmp_path):
    target = tmp_path / "ro"
    target.mkdir(mode=0o500)
    cache = LayoutCache(binary, ArtifactStore(target))
    fp, layout = next(iter(layouts.items()))
    cache.put(fp, "all", layout)  # disk write fails quietly
    assert cache.get(fp, "all", passes)[1] == "memory"
