"""The readers with every real block parsed by forked processes.

`wsml.io.Reader.block` parses a REAL block of PARSE_MIN entries or more in one
forked process per usable CPU. Here PARSE_MIN is 1 and 2 to 4 workers are
forced (cycling through the real CPUs, as in test_io's forked writes), so every
real block takes that path. The reader's edge cases and mutated files must
give the serial reader's bits, or fail at its line with its message, at tiny
chunk sizes as well as the default. A fault in a child's chunk wins over any
later fault or end of file, a child that dies fails the load with OSError,
each parser runs on its own CPU, and a process with other threads forks
nothing. After every case no child is left and the CPU affinity is what it
was.

PARALLEL_MIN is 1 too, so the same dealer writes every real block that these
cases save, and each valid file saves to the serial bytes. A fork, socket pair
or pin that fails before any chunk is dealt (injected, never by exhausting
real process ids or descriptors) leaves the save and the load to the children
started, or to the serial path, with the serial bytes and bits.
"""

import errno
import os
import re
import signal
import socket
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_io
import test_io_chunks
import wsml.io as wsml_io
from test_io import affinity, fuzz_dir  # noqa: F401  (fixtures)
from test_io_chunks import DEFAULT_CHUNK, outcome
from wsml.dataset import FormatError, load_dataset, save_dataset

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
REAL_FORK = getattr(os, "fork", None)  # as the module found it, before any test counts its calls


def fork_every_real_block(monkeypatch, workers: int) -> list:
    """Parse every REAL block in `workers` processes; returns the list that gets one entry per fork."""
    monkeypatch.setattr(wsml_io, "PARSE_MIN", 1)
    monkeypatch.setattr(wsml_io, "PARALLEL_MIN", 1)  # and write every REAL block through the same dealer
    test_io.force_workers(monkeypatch, workers)
    return test_io.count_forks(monkeypatch)


@pytest.mark.parametrize("workers", [2, 3, 4])
class TestReaderEdges(test_io_chunks.TestReaderEdges):
    @pytest.fixture(autouse=True)
    def forked(self, monkeypatch, affinity, workers):  # noqa: F811
        forks = fork_every_real_block(monkeypatch, workers)
        yield
        assert len(forks) == workers - 1  # the feature block's parsers
        test_io.assert_no_child_and_affinity(affinity)

    @pytest.fixture(autouse=True)
    def uncounted_writers(self, monkeypatch):
        """A save forks its writers through the os.fork that no test patches, so `forked` counts the parsers."""
        real_save = wsml_io.save

        def save(*args):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(os, "fork", REAL_FORK)
                real_save(*args)

        monkeypatch.setattr(wsml_io, "save", save)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), workers=st.integers(2, 4), chunk=st.sampled_from([1, 2, 7, 64, DEFAULT_CHUNK]))
def test_mutated_files_read_alike_when_forked(data, workers, chunk, fuzz_dir):  # noqa: F811
    directory, texts = fuzz_dir
    name, text = data.draw(test_io.mutated(texts))
    path = directory / "mutated-forked.txt"
    path.write_text(text)
    reader, before = test_io.READERS[name], test_io.current_affinity()
    expected = outcome(reader, path)  # these small files parse serially by default
    with pytest.MonkeyPatch.context() as mp:
        fork_every_real_block(mp, workers)
        mp.setattr(wsml_io, "CHUNK_CHARS", chunk)
        assert outcome(reader, path) == expected
    test_io.assert_no_child_and_affinity(before)


def features_file(tmp_path):
    """A saved dataset, its lines, and the line number of each feature row; with 8-character chunks each feature row
    is a chunk of its own, dealt to the first child, then the next worker, and so on."""
    path = tmp_path / "features.wsml"
    save_dataset(test_io.dataset_with_truth(), path, config_comment="{}")
    lines = path.read_text().splitlines()
    return path, lines, [4 + row for row in range(12)]  # after the header, #cfg and dims lines


def bad_real(lines, lineno):
    lines = list(lines)
    lines[lineno - 1] = "x" + lines[lineno - 1]
    return lines


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("later", ["fault", "end of file"])
def test_a_fault_in_a_childs_chunk_wins_over_later_ones(tmp_path, monkeypatch, affinity, workers, later):  # noqa: F811
    path, lines, rows = features_file(tmp_path)
    monkeypatch.setattr(wsml_io, "CHUNK_CHARS", 8)
    forks = fork_every_real_block(monkeypatch, workers)
    for first in range(len(rows) - 1):  # each worker's chunk, the parent's included, is the first at fault in turn
        forks.clear()
        broken = bad_real(lines, rows[first])
        broken = bad_real(broken, rows[first + 1]) if later == "fault" else broken[:rows[first + 1]]
        path.write_text("\n".join(broken) + "\n")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(wsml_io, "PARSE_MIN", 1 << 60)
            with pytest.raises(FormatError) as serial:
                load_dataset(path)
        assert serial.value.line == rows[first] and forks == []
        with pytest.raises(FormatError) as forked:
            load_dataset(path)
        assert (forked.value.line, str(forked.value)) == (serial.value.line, str(serial.value))
        assert str(forked.value) == f"line {rows[first]}: invalid real number in feature"
        assert len(forks) == workers - 1
        test_io.assert_no_child_and_affinity(affinity)


@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("when", [
    "parsing",  # after it has read its first of many chunks: the parent reads a short answer, or cannot send the next
    "parsing its only chunk",  # the whole block: the parent reads a short answer and has nothing more to send
    "starting",  # before it reads its chunk: the parent's send or read finds the channel broken or reset
])
def test_a_child_that_dies_fails_the_load_with_the_path(tmp_path, monkeypatch, affinity, workers, when):  # noqa: F811
    if when == "starting" and not hasattr(os, "sched_setaffinity"):
        pytest.skip("a child dies as it pins itself")
    path, _, _ = features_file(tmp_path)
    if when == "parsing":
        monkeypatch.setattr(wsml_io, "CHUNK_CHARS", 8)
    name = (os, "sched_setaffinity") if when == "starting" else (wsml_io, "_parse_into")
    parent, real = os.getpid(), getattr(*name)

    def die_in_a_child(*args):  # a child parses and pins itself through these names too
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    monkeypatch.setattr(*name, die_in_a_child)
    fork_every_real_block(monkeypatch, workers)
    with pytest.raises(OSError, match=re.escape(str(path))):
        load_dataset(path)
    test_io.assert_no_child_and_affinity(affinity)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_each_parser_is_pinned_to_its_own_cpu(tmp_path, monkeypatch, affinity):  # noqa: F811
    path, _, _ = features_file(tmp_path)
    monkeypatch.setattr(wsml_io, "CHUNK_CHARS", 8)
    parent, real_parse, real_pin, parent_pins = os.getpid(), wsml_io._parse_into, os.sched_setaffinity, []

    def parse_into(out, lines, cols, what, kind, bounds):  # a child names the CPUs it may run on as its chunk's fault
        if kind is not wsml_io.REAL:
            return real_parse(out, lines, cols, what, kind, bounds)
        return 0, f"on {sorted(os.sched_getaffinity(0))}" if os.getpid() != parent else "the parent parsed first"

    def pin(pid, mask):
        if os.getpid() == parent:
            parent_pins.append(set(mask))
        real_pin(pid, mask)

    fork_every_real_block(monkeypatch, 2)
    cpus = wsml_io.usable_cpus()
    monkeypatch.setattr(wsml_io, "_parse_into", parse_into)
    monkeypatch.setattr(os, "sched_setaffinity", pin)
    with pytest.raises(FormatError, match=re.escape(f"on [{cpus[1]}]")):
        load_dataset(path)
    assert parent_pins == [{cpus[0]}, affinity]  # the parent's own chunks on the first CPU, then its mask back
    test_io.assert_no_child_and_affinity(affinity)


def test_a_process_with_other_threads_forks_nothing(tmp_path, monkeypatch, affinity):  # noqa: F811
    """A fork while another thread holds a lock can hang the child, so both the writer and the parser stay serial."""
    test_io.force_workers(monkeypatch, 2)
    forks = test_io.count_forks(monkeypatch)
    block = np.random.default_rng(5).standard_normal((max(wsml_io.PARALLEL_MIN, wsml_io.PARSE_MIN) // 64, 64))
    path = tmp_path / "out.txt"

    def save_and_load():
        test_io.save_block(path, block)
        assert path.read_bytes() == test_io.serial_text(block)
        with wsml_io.Reader(path, "HEAD") as reader:
            assert reader.line("literal")[1] == "7 8"
            assert reader.block(block.shape, "real", wsml_io.REAL).tobytes() == block.tobytes()

    stop = threading.Event()
    helper = threading.Thread(target=stop.wait)
    helper.start()
    try:
        save_and_load()
    finally:
        stop.set()
        helper.join()
    assert forks == []
    save_and_load()  # with the helper gone, the same save and load each fork a child
    assert len(forks) == 2
    test_io.assert_no_child_and_affinity(affinity)


def fail_the_nth_call(monkeypatch, owner, name: str, nth: int, error: OSError) -> list:
    """Make the parent's `nth` call of owner.name raise `error`; returns the list of the parent's calls, which the
    caller clears to count from 1 again."""
    parent, real, calls = os.getpid(), getattr(owner, name), []

    def call(*args):
        if os.getpid() == parent:
            calls.append(args)
            if len(calls) == nth:
                raise error
        return real(*args)

    monkeypatch.setattr(owner, name, call)
    return calls


# (workers, the call that fails, its 1-based number in each block, the forks that succeed in each block)
FAILED_STARTS = [
    (2, "first fork", 1, 0),
    (3, "second fork", 2, 1),
    (4, "second fork", 2, 1),
    (3, "socketpair", 1, 0),
    (4, "second socketpair", 2, 1),
    (3, "the caller's pin", 1, 0),
]


@pytest.mark.parametrize("workers,failure,nth,started", FAILED_STARTS)
def test_a_failed_start_deals_to_the_children_started(tmp_path, monkeypatch, affinity, workers, failure, nth,
                                                       started):  # noqa: F811
    """A host short of processes or descriptors gives a large save and load the serial bytes and bits."""
    if "pin" in failure and not hasattr(os, "sched_setaffinity"):
        pytest.skip("needs CPU affinity")
    block = np.random.default_rng(9).standard_normal((max(wsml_io.PARALLEL_MIN, wsml_io.PARSE_MIN) // 64, 64))
    path = tmp_path / "out.txt"
    test_io.force_workers(monkeypatch, workers)
    forks = test_io.count_forks(monkeypatch)  # the forks that succeed: the failing call wraps this one
    owner, name, error = {
        "fork": (os, "fork", BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))),
        "socketpair": (socket, "socketpair", OSError(errno.EMFILE, os.strerror(errno.EMFILE))),
        "pin": (os, "sched_setaffinity", OSError(errno.EINVAL, os.strerror(errno.EINVAL))),
    }[failure.split()[-1]]
    calls = fail_the_nth_call(monkeypatch, owner, name, nth, error)
    test_io.save_block(path, block)
    assert path.read_bytes() == test_io.serial_text(block)
    assert len(forks) == started and len(calls) >= nth
    test_io.assert_no_child_and_affinity(affinity)
    forks.clear(), calls.clear()
    with wsml_io.Reader(path, "HEAD") as reader:
        assert reader.line("literal")[1] == "7 8"
        assert reader.block(block.shape, "real", wsml_io.REAL).tobytes() == block.tobytes()
    assert len(forks) == started and len(calls) >= nth
    test_io.assert_no_child_and_affinity(affinity)


@pytest.mark.parametrize("workers", [2, 3, 4])
@pytest.mark.parametrize("chunk", [1, 7, 64, DEFAULT_CHUNK])
def test_valid_files_save_to_the_serial_bytes_when_forked(tmp_path, monkeypatch, affinity, workers, chunk):  # noqa: F811
    def saved(directory):
        directory.mkdir()
        test_io.valid_files(directory)
        return {path.name: path.read_bytes() for path in directory.iterdir()}

    expected = saved(tmp_path / "serial")
    forks = fork_every_real_block(monkeypatch, workers)
    monkeypatch.setattr(wsml_io, "CHUNK_CHARS", chunk)
    assert saved(tmp_path / "forked") == expected
    assert forks or chunk == DEFAULT_CHUNK  # at the default every block of these small files is one chunk
    test_io.assert_no_child_and_affinity(affinity)
