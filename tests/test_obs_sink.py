"""Fork-safety of the JSONL sink: spans emitted by parallel_map
workers interleave whole in the shared trace file."""

import collections

import pytest

from repro import obs
from repro.pipeline import fork_available, parallel_map
from repro.obs.sink import read_events


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset_metrics()
    yield
    obs.disable()
    obs.reset_metrics()


def _traced_cell(item):
    """Module-level (picklable) worker: emits one padded span per call.

    The padding makes torn writes detectable — a partial line cannot
    parse as JSON and read_events raises.
    """
    with obs.span("cell", item=item, pad="x" * 256):
        return item * 2


class TestForkedSinkConcurrency:
    @pytest.mark.skipif(not fork_available(), reason="fork start method required")
    def test_worker_spans_interleave_without_corruption(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs.enable(trace_path=path)
        items = list(range(64))
        results = parallel_map(_traced_cell, items, jobs=4)
        obs.disable()

        assert results == [i * 2 for i in items]
        events = read_events(path)  # raises ValueError on any torn line
        spans = [e for e in events if e["type"] == "span"]
        assert sorted(s["attrs"]["item"] for s in spans) == items

        # Span ids are pid-prefixed: unique across the worker pool.
        ids = [s["span_id"] for s in spans]
        assert len(set(ids)) == len(ids)
        pids = {s["pid"] for s in spans}
        assert len(pids) > 1, "expected spans from more than one process"

    @pytest.mark.skipif(not fork_available(), reason="fork start method required")
    def test_parallel_results_match_serial(self, tmp_path):
        obs.enable(trace_path=tmp_path / "t.jsonl")
        items = list(range(32))
        serial = [_traced_cell(i) for i in items]
        parallel = parallel_map(_traced_cell, items, jobs=4)
        obs.disable()
        assert parallel == serial

    def test_serial_fallback_still_traces(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs.enable(trace_path=path)
        parallel_map(_traced_cell, [1, 2, 3], jobs=1)
        obs.disable()
        spans = [e for e in read_events(path) if e["type"] == "span"]
        assert collections.Counter(s["name"] for s in spans) == {"cell": 3}
