"""Atomic-write guarantees of the ArtifactStore under concurrency.

The serve disk tier and parallel experiment runs write the same
artifact keys from multiple processes; the store's write-to-temp +
``os.replace`` path must mean a reader can never observe a torn file.
"""

import json
import multiprocessing
import pathlib

import pytest

from repro.pipeline import fork_available
from repro.harness.store import ArtifactStore

FINGERPRINT = "stress-fp"
ARTIFACT = "stress.json"
WRITERS = 4
ITERATIONS = 25
#: Big enough that a non-atomic write would be observably torn.
PADDING = "x" * 64_000


def _save_json(payload, path):
    with open(path, "w") as handle:
        json.dump(payload, handle)


def _payload(writer, iteration):
    return {
        "writer": writer,
        "iteration": iteration,
        "padding": PADDING,
        # A reader validates the document against itself, so any mix
        # of two writes is detectable.
        "checksum": f"{writer}:{iteration}:{len(PADDING)}",
    }


def _writer_proc(root, writer, failures):
    store = ArtifactStore(root)
    for iteration in range(ITERATIONS):
        written = store.save(
            FINGERPRINT, ARTIFACT, _payload(writer, iteration), _save_json
        )
        if written <= 0:
            failures.put(f"writer {writer} iteration {iteration}: 0 bytes")


def _reader_proc(root, stop, failures):
    path = ArtifactStore(root).path(FINGERPRINT, ARTIFACT)
    observed = 0
    while not stop.is_set() or observed == 0:
        if not path.exists():
            continue
        try:
            with open(path) as handle:
                document = json.load(handle)
        except (json.JSONDecodeError, OSError) as exc:
            failures.put(f"torn read: {exc}")
            return
        expected = f"{document['writer']}:{document['iteration']}:{len(PADDING)}"
        if document["checksum"] != expected or document["padding"] != PADDING:
            failures.put(f"inconsistent document: {document['checksum']}")
            return
        observed += 1


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
def test_concurrent_same_key_writers_never_tear(tmp_path):
    context = multiprocessing.get_context("fork")
    failures = context.Queue()
    stop = context.Event()
    readers = [
        context.Process(target=_reader_proc, args=(tmp_path, stop, failures))
        for _ in range(2)
    ]
    writers = [
        context.Process(
            target=_writer_proc, args=(tmp_path, writer, failures)
        )
        for writer in range(WRITERS)
    ]
    for process in readers + writers:
        process.start()
    for process in writers:
        process.join(timeout=60)
    stop.set()
    for process in readers:
        process.join(timeout=60)
    for process in readers + writers:
        assert not process.is_alive()
        assert process.exitcode == 0

    problems = []
    while not failures.empty():
        problems.append(failures.get())
    assert problems == []

    # The final artifact is one complete write from one writer...
    store = ArtifactStore(tmp_path)
    final = json.loads(store.path(FINGERPRINT, ARTIFACT).read_text())
    assert final["iteration"] == ITERATIONS - 1
    assert final["writer"] in range(WRITERS)
    # ...and no temporary files leaked.
    leftovers = [
        p for p in pathlib.Path(tmp_path, FINGERPRINT).iterdir()
        if p.name.startswith(".tmp-")
    ]
    assert leftovers == []


def test_save_load_round_trip_is_atomic_per_key(tmp_path):
    store = ArtifactStore(tmp_path)
    written = store.save(FINGERPRINT, ARTIFACT, _payload(0, 0), _save_json)
    assert written > 0
    loaded = store.load(
        FINGERPRINT, ARTIFACT, lambda path: json.loads(
            pathlib.Path(path).read_text()
        )
    )
    assert loaded == _payload(0, 0)
    tmp_files = [
        p for p in (tmp_path / FINGERPRINT).iterdir()
        if p.name.startswith(".tmp-")
    ]
    assert tmp_files == []


def test_failed_write_leaves_no_debris(tmp_path):
    store = ArtifactStore(tmp_path)

    def exploding_saver(obj, path):
        with open(path, "w") as handle:
            handle.write("partial")
        raise OSError("disk full")

    written = store.save(FINGERPRINT, ARTIFACT, {}, exploding_saver)
    assert written == 0
    target = store.path(FINGERPRINT, ARTIFACT)
    assert not target.exists()
    assert not any(
        p.name.startswith(".tmp-") for p in target.parent.iterdir()
    )
