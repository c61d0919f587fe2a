"""Hard timeouts and crashed-worker detection in parallel_map."""

import os
import time

import pytest

from repro.errors import ParallelError
from repro.pipeline import fork_available, parallel_map, resolve_jobs

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="needs fork start method"
)


def _square(value):
    return value * value


def _sleepy(value):
    if value < 0:
        time.sleep(60.0)
    return value


def _exit_hard(value):
    if value < 0:
        os._exit(13)  # simulates an OOM-killed / crashed worker
    return value


class TestTimeout:
    def test_normal_map_honours_timeout_quietly(self):
        result = parallel_map(_square, range(8), jobs=2, timeout=30.0)
        assert result == [v * v for v in range(8)]

    def test_hung_worker_raises_naming_the_task(self):
        started = time.monotonic()
        with pytest.raises(ParallelError) as excinfo:
            parallel_map(_sleepy, [1, 2, -1, 4], jobs=2, timeout=1.0)
        elapsed = time.monotonic() - started
        # The pool was terminated, not joined: nowhere near the 60 s nap.
        assert elapsed < 20.0
        message = str(excinfo.value)
        assert "task 2" in message
        assert "1s hard timeout" in message

    def test_serial_path_ignores_timeout(self):
        # jobs=1 is the plain comprehension; timeout does not apply.
        assert parallel_map(_square, [3], jobs=1, timeout=0.0) == [9]


class TestCrashedWorker:
    def test_crash_with_timeout_names_the_task(self):
        with pytest.raises(ParallelError, match="crashed while running task"):
            parallel_map(_exit_hard, [1, -1, 3], jobs=2, timeout=30.0)

    def test_crash_without_timeout_still_raises(self):
        with pytest.raises(ParallelError, match="worker crashed"):
            parallel_map(_exit_hard, [1, -1, 3], jobs=2)


class TestResolveJobs:
    def test_defaults_to_serial(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(0) == 1

    def test_negative_means_per_cpu(self):
        assert resolve_jobs(-1) == (os.cpu_count() or 1)
