"""The text files wsml writes: pinned bytes, rejected input and atomic writes.

The sha256 of each file below was captured before the dataset, checkpoint
and tracker codecs were merged into one module. A change to the `%.17g`
reals, the token vocabulary, the comment line or the block layout fails
here even when a value round trip still passes. The hashes must not be
edited to make a refactor pass.
"""

import errno
import gc
import hashlib
import os
import pickle
import re
import select
import socket
import stat
import sys
import threading
import time
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wsml.io as wsml_io
from wsml import cli
from wsml.cli import load_tracker, main
from wsml.dataset import (
    FormatError,
    LabelState,
    PartialDataset,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    make_single_positive,
    save_dataset,
)
from wsml.model import init_classifier, load_model, save_model

N, P, U, C = (int(s) for s in LabelState)

# reals that stress the 17-digit format: subnormals, the extremes, signed zero
EXTREMES = np.array([
    [5e-324, -5e-324, 2.2250738585072014e-308, 0.1],
    [1.7976931348623157e308, -1.7976931348623157e308, -0.0, 0.0],
    [1.0 / 3.0, -2.5e-7, 123456789.0, 1e16],
])

GOLDEN_SHA256 = {
    "dataset-truth": "21818f50a6ffb1e2f957cc8111c105ae38eee59fb8205911c4f262bd4496bc9d",
    "dataset-bare": "7e77d27f0e0a14865640c2fcb100f4569174691e663f7ce373df09e0dd397b03",
    "model-linear": "0bce885a0bf76ad1794858f434408ed40300d4bde6668bf89909c9989e03ee11",
    "model-mlp1": "04421ecf2693b74f1b7c15874f0989b7d9b4089628f331c4e6fafb3987f27fde",
    "tracker-train": "c947f81dab965cd5b4447527e9029bd2392f2756b59c02724229ee909be0658e",
    "model-train": "7674bc734a26cfddb0981ce03a1906a1630bdfc3baf4da3f649b00b142a5ce57",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def dataset_with_truth() -> PartialDataset:
    full = generate_synthetic(SyntheticSpec(n=12, dim=3, classes=4, pos_rate=0.4, seed=2))
    partial = make_single_positive(full, seed=2)
    states = partial.states.copy()
    states[0, states[0] == U] = C  # one row with every state token
    states[1, np.flatnonzero(partial.truth[1] == 0)[:1]] = N
    return PartialDataset(partial.features, states, partial.truth)


def dataset_without_truth() -> PartialDataset:
    states = np.array([[U, P, N, C], [P, U, U, U], [N, N, P, U]], dtype=np.int8)
    return PartialDataset(EXTREMES, states)


def scaled_model(arch: str, **kwargs):
    m = init_classifier(arch, 4, 3, seed=13, **kwargs)
    for i, p in enumerate(m.params.values()):
        p += 0.1 * (i + 1)
        p *= 7.3
    return m


def written_files(tmp_path) -> dict:
    out = {}
    out["dataset-truth"] = tmp_path / "truth.wsml"
    save_dataset(dataset_with_truth(), out["dataset-truth"], config_comment='{"cmd": "gen"}')
    out["dataset-bare"] = tmp_path / "bare.wsml"
    save_dataset(dataset_without_truth(), out["dataset-bare"])
    out["model-linear"] = tmp_path / "linear.model"
    save_model(scaled_model("linear"), out["model-linear"], config_comment='{"cmd": "train"}')
    out["model-mlp1"] = tmp_path / "mlp1.model"
    save_model(scaled_model("mlp1", hidden=5), out["model-mlp1"])
    return out


def trained_files(tmp_path, monkeypatch) -> dict:
    """A tiny fixed `wsml train` run; relative paths keep the `#cfg` line fixed."""
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--n", "40", "--dim", "3", "--classes", "4", "--pos-rate", "0.4",
                 "--seed", "3", "--out", "full.wsml"]) == 0
    assert main(["partialize", "--in", "full.wsml", "--mode", "single-positive", "--seed", "3",
                 "--out", "sp.wsml"]) == 0
    assert main(["train", "--data", "sp.wsml", "--scheme", "ll-ct", "--epochs", "3", "--batch", "8",
                 "--seed", "5", "--arch", "linear", "--delta-rel", "5", "--out-prefix", "run"]) == 0
    return {"tracker-train": tmp_path / "run.tracker", "model-train": tmp_path / "run.model"}


class TestGoldenBytes:
    def test_dataset_and_checkpoint_bytes(self, tmp_path):
        for name, path in written_files(tmp_path).items():
            assert sha256(path) == GOLDEN_SHA256[name], name

    def test_trained_tracker_and_checkpoint_bytes(self, tmp_path, monkeypatch):
        for name, path in trained_files(tmp_path, monkeypatch).items():
            assert sha256(path) == GOLDEN_SHA256[name], name

    def test_extreme_reals_read_back_bit_exact(self, tmp_path):
        path = written_files(tmp_path)["dataset-bare"]
        assert load_dataset(path).features.tobytes() == EXTREMES.tobytes()


# ---------------------------------------------------------------------------
# non-finite reals: each format names the line, and the CLI exits 2
# ---------------------------------------------------------------------------

NON_FINITE = ["nan", "inf", "-inf", "1e999"]


def replace_token(path, line: int, col: int, token: str) -> None:
    lines = path.read_text().splitlines()
    parts = lines[line - 1].split()
    parts[col] = token
    lines[line - 1] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture()
def trained(tmp_path, monkeypatch):
    return trained_files(tmp_path, monkeypatch)


def eval_phase_table():
    return main(["eval", "--model", "run.model", "--data", "sp.wsml", "--phase-table", "--tracker", "run.tracker"])


class TestNonFiniteReals:
    @pytest.mark.parametrize("token", NON_FINITE)
    def test_dataset_feature(self, tmp_path, token, capsys):
        path = written_files(tmp_path)["dataset-truth"]
        replace_token(path, 6, 1, token)  # header, comment, dims, then feature rows
        with pytest.raises(FormatError, match="non-finite") as err:
            load_dataset(path)
        assert err.value.line == 6
        assert main(["partialize", "--in", str(path), "--mode", "single-positive", "--seed", "1",
                     "--out", str(tmp_path / "out.wsml")]) == 2
        assert "line 6:" in capsys.readouterr().err

    @pytest.mark.parametrize("token", NON_FINITE)
    def test_model_weight(self, trained, token, capsys):
        replace_token(trained["model-train"], 6, 2, token)  # header, comment, arch, dims, W rows
        with pytest.raises(FormatError, match="non-finite") as err:
            load_model(trained["model-train"])
        assert err.value.line == 6
        capsys.readouterr()
        assert main(["eval", "--model", "run.model", "--data", "full.wsml"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 6:" in captured.err

    @pytest.mark.parametrize("token", NON_FINITE)
    def test_tracker_max_loss(self, trained, token, capsys):
        replace_token(trained["tracker-train"], 6, 0, token)  # header, comment, dims, rows, max-loss
        with pytest.raises(FormatError, match="non-finite") as err:
            load_tracker(trained["tracker-train"])
        assert err.value.line == 6
        capsys.readouterr()
        assert eval_phase_table() == 2
        assert "line 6:" in capsys.readouterr().err


def test_tracker_k_must_match_the_dataset(trained, capsys):
    """A tracker of K=3 against a K=4 dataset names the tracker and both K values."""
    path = trained["tracker-train"]
    lines = path.read_text().splitlines()
    n, _, epochs = lines[2].split()
    lines[2] = f"{n} 3 {epochs}"
    for i in range(4, 4 + 2 * int(n)):  # max-loss and argmax rows lose their last column
        lines[i] = " ".join(lines[i].split()[:-1])
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert eval_phase_table() == 2
    err = capsys.readouterr().err
    assert "run.tracker" in err
    assert "K=3" in err and "K=4" in err


class TestReaderEdges:
    """The ends of a Reader's lines: a file that stops without a final line break, a blank line in a block."""

    def test_last_line_without_a_final_newline_loads_bit_for_bit(self, tmp_path):
        ds = dataset_with_truth()
        path = tmp_path / "open.wsml"
        save_dataset(ds, path, config_comment="{}")
        text = path.read_text()
        assert text.endswith(" 0\n") or text.endswith(" 1\n")  # a truth row, then the final newline
        path.write_text(text[:-1])
        back = load_dataset(path)
        for got, want in ((back.features, ds.features), (back.states, ds.states), (back.truth, ds.truth)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_blank_line_inside_a_block_fails_at_that_line(self, tmp_path):
        path = tmp_path / "blank.wsml"
        save_dataset(dataset_with_truth(), path, config_comment="{}")
        lines = path.read_text().splitlines()
        lines.insert(5, "")  # line 6: after the header, #cfg and dims lines and two of the 3-wide feature rows
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as err:
            load_dataset(path)
        assert err.value.line == 6
        assert str(err.value) == "line 6: expected 3 feature values, got none"


def test_huge_dimension_line_reads_rows_before_allocating(tmp_path):
    path = tmp_path / "huge.wsml"
    path.write_text("WSML/1\n100000000000 100 20\n0 0\n")
    with pytest.raises(FormatError, match="expected 100 feature values") as err:
        load_dataset(path)
    assert err.value.line == 3


def legacy_loadtxt(real):
    """np.loadtxt with the integer parsing of numpy from 1.23 until its deprecation expired:
    a decimal such as '1.5' is cut to an int with only a DeprecationWarning."""
    def loadtxt(lines, dtype=float, converters=None, **kwargs):
        if dtype is not np.int64 or converters is not None:
            return real(lines, dtype=dtype, converters=converters, **kwargs)
        values = real(lines, dtype=np.float64, **kwargs)
        if (values != np.trunc(values)).any():
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        return values.astype(np.int64)
    return loadtxt


# (file, line, column, token): a tracker argmax row, its row-index line, a dataset dimension line;
# each token cut to an int is the value already there, so a file that lost the check would load
FRACTIONAL_INTEGERS = [("tracker", 7, 1, "1.5"), ("tracker", 4, 0, "7.5"), ("dataset", 3, 0, "12.5")]


@pytest.mark.parametrize("numpy_parser", ["installed", "legacy"])
@pytest.mark.parametrize("kind,line,col,token", FRACTIONAL_INTEGERS)
def test_fractional_integer_is_a_format_error(tmp_path, monkeypatch, numpy_parser, kind, line, col, token):
    """'1.5' where an integer belongs fails at its line whatever the warning filters and the numpy version."""
    if numpy_parser == "legacy":
        monkeypatch.setattr(np, "loadtxt", legacy_loadtxt(np.loadtxt))
    path = tmp_path / "f.txt"
    WRITERS[kind](path)
    replace_token(path, line, col, token)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # what a library call sees under Python's default filters
        with pytest.raises(FormatError, match="invalid integer") as err:
            (load_tracker if kind == "tracker" else load_dataset)(path)
    assert err.value.line == line


# ---------------------------------------------------------------------------
# atomic writes: a write that fails partway leaves the old file and no temp file
# ---------------------------------------------------------------------------


def fail_writes_to(monkeypatch, target, after: int, error: OSError | None = None) -> None:
    """Make every write after the first `after` to a file opened for `target` raise `error`, by default an OSError."""
    real_open = open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "w" in mode and os.path.realpath(file).startswith(os.path.realpath(target)):
            real_write, left = fh.write, [after]

            def write(text):
                if left[0] == 0:
                    raise error or OSError("injected write failure")
                left[0] -= 1
                return real_write(text)

            fh.write = write
        return fh

    monkeypatch.setattr(wsml_io, "open", failing_open, raising=False)


WRITERS = {  # tracker: N=2, K=3, epochs=1, so line 4 holds the row indices and lines 7-8 the argmax rows
    "dataset": lambda path: save_dataset(dataset_with_truth(), path, config_comment="{}"),
    "model": lambda path: save_model(scaled_model("mlp1", hidden=5), path),
    "tracker": lambda path: cli._write_tracker(path, SimpleNamespace(
        tracker=SimpleNamespace(max_loss=np.full((2, 3), 0.5), argmax_epoch=np.ones((2, 3), dtype=int),
                                epochs_tracked=1),
        train_indices=np.array([1, 0])), np.array([4, 7]), "{}"),
}


class TestAtomicWrites:
    @pytest.mark.parametrize("after", [0, 1, 4])
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_format_writers(self, tmp_path, monkeypatch, writer, after):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        fail_writes_to(monkeypatch, path, after)
        with pytest.raises(OSError, match="injected"):
            WRITERS[writer](path)
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_unwritable_directory_leaves_nothing(self, tmp_path):
        with pytest.raises(OSError):
            save_dataset(dataset_with_truth(), tmp_path / "missing" / "d.wsml")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("target", ["run.metrics.csv", "run.model", "run.tracker", "run.report.json"])
    def test_train_outputs(self, tmp_path, monkeypatch, target, after=3):
        trained_files(tmp_path, monkeypatch)
        (tmp_path / target).write_text("old\n")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        fail_writes_to(monkeypatch, target, after)
        assert main(["train", "--data", "sp.wsml", "--scheme", "ll-ct", "--epochs", "3", "--batch", "8",
                     "--seed", "5", "--arch", "linear", "--delta-rel", "5", "--out-prefix", "run"]) == 2
        # the files written before the failure get their old bytes again: the run is deterministic
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("target,argv", [
        ("ev.json", ["eval", "--model", "run.model", "--data", "full.wsml", "--out", "ev.json"]),
        ("sweep.csv", ["sweep", "--data", "sp.wsml", "--scheme", "ll-ct", "--param", "delta-rel", "--values",
                       "1", "--epochs", "1", "--seed", "1", "--arch", "linear", "--out", "sweep.csv"]),
    ])
    def test_eval_out_and_sweep_csv(self, tmp_path, monkeypatch, target, argv):
        trained_files(tmp_path, monkeypatch)
        monkeypatch.setenv("WSML_THREADS", "1")
        (tmp_path / target).write_text("old\n")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        fail_writes_to(monkeypatch, target, 0)
        assert main(argv) == 2
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    # the caller's first and second chunks: a child's answers go to the binary buffer under the text layer
    @pytest.mark.parametrize("after", [3, 4])
    def test_a_broken_pipe_in_a_forked_save_stays_the_callers(self, tmp_path, monkeypatch, affinity, after):
        """The caller's own write failing, as on a /dev/stdout whose reader has gone, is no child's death."""
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        force_workers(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        fail_writes_to(monkeypatch, path, after, BrokenPipeError(errno.EPIPE, "injected broken pipe"))
        with pytest.raises(BrokenPipeError, match="injected broken pipe"):
            save_block(path, np.ones(BIG))  # the header, #cfg and literal lines are the first three writes
        assert len(forks) == 1
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
        assert_no_child_and_affinity(affinity)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_fifo_and_symlink_are_written_through(self, tmp_path, monkeypatch):
        """A FIFO (like /dev/stdout on a pipe) is written in place; a symlink keeps pointing at the new file."""
        trained_files(tmp_path, monkeypatch)
        argv = ["eval", "--model", "run.model", "--data", "full.wsml", "--out"]
        assert main([*argv, "ev.json"]) == 0
        expected = (tmp_path / "ev.json").read_text()
        os.mkfifo("ev.fifo")
        reader = os.open("ev.fifo", os.O_RDONLY | os.O_NONBLOCK)  # so the writer's open does not block
        try:
            assert main([*argv, "ev.fifo"]) == 0
            assert os.read(reader, 1 << 20).decode() == expected
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.lstat("ev.fifo").st_mode)
        (tmp_path / "target.json").write_text("old\n")
        os.symlink("target.json", "link.json")
        assert main([*argv, "link.json"]) == 0
        assert os.path.islink("link.json") and (tmp_path / "target.json").read_text() == expected
        assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


# ---------------------------------------------------------------------------
# forked writes: a large real block is formatted by one forked process per CPU
# with the bytes of the serial loop, and no process outlives the save
# ---------------------------------------------------------------------------

COLS = 64
BIG = (wsml_io.PARALLEL_MIN // COLS, COLS)  # exactly PARALLEL_MIN entries
STEP = wsml_io.CHUNK_CHARS // (25 * COLS)  # the rows of each chunk save deals of a block of COLS columns


def force_workers(monkeypatch, workers: int) -> None:
    """Make save see `workers` usable CPUs, cycling through the real ones so that every worker can be pinned."""
    cpus = wsml_io.usable_cpus()
    monkeypatch.setattr(wsml_io, "usable_cpus", lambda: [cpus[i % len(cpus)] for i in range(workers)])


def count_forks(monkeypatch) -> list:
    """A list that gets one entry per os.fork call in this process."""
    forks, real_fork = [], os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def track_parts(monkeypatch) -> list:
    """A list that gets the caller's end of every channel save opens to a forked child."""
    parts, real = [], socket.socket.makefile

    def makefile(self, *args, **kwargs):
        parts.append(real(self, *args, **kwargs))
        return parts[-1]

    monkeypatch.setattr(socket.socket, "makefile", makefile)
    return parts


def wait_for_children(reached: int, count: int, timeout: float = 20.0) -> int:
    """The bytes, up to `count`, that forked children write to the pipe whose read end is `reached` within `timeout`
    seconds: each child writes one as it reaches the patched name."""
    got, deadline = b"", time.monotonic() + timeout
    while len(got) < count and select.select([reached], [], [], max(0.0, deadline - time.monotonic()))[0]:
        got += os.read(reached, count - len(got))
    return len(got)


def save_block(path, block) -> None:
    """Save `block` between other parts, so the rows the children format must land between them."""
    wsml_io.save(path, "HEAD", "{}", ["7 8", (block, wsml_io.REAL), (np.arange(6).reshape(2, 3), wsml_io.INT)])


def serial_text(block) -> bytes:
    rows = "".join(" ".join("%.17g" % v for v in row) + "\n" for row in block)
    return f"HEAD\n#cfg {{}}\n7 8\n{rows}0 1 2\n3 4 5\n".encode()


def current_affinity():
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


def assert_no_child_and_affinity(affinity) -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert current_affinity() == affinity


@pytest.fixture
def affinity():
    """This process's CPU affinity, which a save must leave as it found it."""
    return current_affinity()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkedWrites:
    @pytest.mark.parametrize("shape", [
        BIG,
        (BIG[0] + 5, COLS),  # uneven ranges for 2, 3 and 4 workers
        (3, wsml_io.PARALLEL_MIN // 2),  # fewer rows than 4 workers
    ])
    def test_any_worker_count_writes_the_serial_bytes(self, tmp_path, monkeypatch, affinity, shape):
        rng = np.random.default_rng(shape[0])
        block = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)  # rows of uneven length
        expected = serial_text(block)
        for workers in (1, 2, 3, 4):
            force_workers(monkeypatch, workers)
            forks, parts = count_forks(monkeypatch), track_parts(monkeypatch)
            save_block(tmp_path / "out.txt", block)
            assert len(forks) == len(parts) == min(workers, shape[0]) - 1
            assert all(part.closed for part in parts)
            assert (tmp_path / "out.txt").read_bytes() == expected, workers
            assert_no_child_and_affinity(affinity)

    def test_small_int_and_forkless_blocks_are_written_serially(self, tmp_path, monkeypatch, affinity):
        force_workers(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        small = np.random.default_rng(2).standard_normal((BIG[0] - 1, COLS))
        save_block(tmp_path / "small.txt", small)
        wsml_io.save(tmp_path / "int.txt", "HEAD", None, [(np.arange(wsml_io.PARALLEL_MIN).reshape(BIG), wsml_io.INT)])
        assert forks == []
        assert (tmp_path / "small.txt").read_bytes() == serial_text(small)
        big = np.random.default_rng(3).standard_normal(BIG)
        monkeypatch.delattr(os, "fork")
        save_block(tmp_path / "big.txt", big)
        assert (tmp_path / "big.txt").read_bytes() == serial_text(big)
        assert_no_child_and_affinity(affinity)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
    def test_each_writer_is_pinned_to_its_own_cpu(self, tmp_path, monkeypatch, affinity):
        force_workers(monkeypatch, 3)
        cpus = wsml_io.usable_cpus()
        parent, real_format, real_pin, parent_pins = os.getpid(), wsml_io._format_rows, os.sched_setaffinity, []

        def format_rows(rows, kind):  # a child formats its chunks through this name: it writes its CPUs instead
            if os.getpid() != parent:
                return f"on {sorted(os.sched_getaffinity(0))}\n"
            return real_format(rows, kind)

        def pin(pid, mask):
            if os.getpid() == parent:
                parent_pins.append(set(mask))
            real_pin(pid, mask)

        monkeypatch.setattr(wsml_io, "_format_rows", format_rows)
        monkeypatch.setattr(os, "sched_setaffinity", pin)
        save_block(tmp_path / "out.txt", np.ones(BIG))
        lines = (tmp_path / "out.txt").read_text().splitlines()
        assert lines[3:5] == [f"on [{cpus[1]}]", f"on [{cpus[2]}]"]  # the first two chunks, one child's each
        assert parent_pins == [{cpus[0]}, affinity]  # its own chunks on the first CPU, then its mask back
        assert_no_child_and_affinity(affinity)

    def test_a_failing_child_fails_the_save_and_keeps_the_target(self, tmp_path, monkeypatch, affinity):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        force_workers(monkeypatch, 3)
        parent, real = os.getpid(), wsml_io._format_rows
        reached, tell = os.pipe()

        def format_rows(*args):  # a child formats its chunks through this name too
            if os.getpid() != parent:
                os.write(tell, b"x")
                raise RuntimeError("injected child failure")
            return real(*args)

        monkeypatch.setattr(wsml_io, "_format_rows", format_rows)
        parts = track_parts(monkeypatch)
        try:
            with pytest.raises(OSError, match=re.escape(str(path))):
                save_block(path, np.ones(BIG))
            assert wait_for_children(reached, 1, timeout=0.0) == 1  # the child that failed got there
        finally:
            os.close(reached), os.close(tell)
        assert len(parts) == 2 and all(part.closed for part in parts)
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
        assert_no_child_and_affinity(affinity)

    def test_a_failure_in_the_parent_range_leaves_no_child(self, tmp_path, monkeypatch, affinity):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        force_workers(monkeypatch, 4)
        parent, real = os.getpid(), wsml_io._format_rows
        reached, tell = os.pipe()
        children = []

        def format_rows(*args):  # each child sleeps far longer than the save may take; the parent waits for all three
            if os.getpid() != parent:
                os.write(tell, b"x")
                time.sleep(60)
            children.append(wait_for_children(reached, 3))
            return real(*args)

        monkeypatch.setattr(wsml_io, "_format_rows", format_rows)
        forks, parts = count_forks(monkeypatch), track_parts(monkeypatch)
        block = np.full(BIG, 0.5, dtype=object)
        block[3 * STEP, 0] = "not a real"  # in the fourth chunk, the parent's: the children get the first three
        start = time.monotonic()
        try:
            with pytest.raises(TypeError):
                save_block(path, block)
        finally:
            os.close(reached), os.close(tell)
        assert time.monotonic() - start < 30  # the children were killed, not waited for
        assert children == [3]  # each child reached the name before the parent failed
        assert len(forks) == len(parts) == 3 and all(part.closed for part in parts)
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
        assert_no_child_and_affinity(affinity)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_a_forked_save_peaks_below_half_the_file_size(self, tmp_path, monkeypatch, affinity, workers):
        """The caller holds a chunk or two of the block's text at a time, never the whole of it."""
        block = np.random.default_rng(4).standard_normal((2400, 100))
        path = tmp_path / "big.txt"
        force_workers(monkeypatch, workers)
        forks = count_forks(monkeypatch)
        tracemalloc.start()
        try:
            save_block(path, block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size >= 16 * wsml_io.CHUNK_CHARS and len(forks) == workers - 1
        assert peak < size / 2, (peak, size)
        assert path.read_bytes() == serial_text(block)
        assert_no_child_and_affinity(affinity)


# ---------------------------------------------------------------------------
# fuzzed readers: a mutated file loads or fails with FormatError at a line in
# range, and with nothing else
# ---------------------------------------------------------------------------


def valid_files(tmp_path) -> dict:
    texts = {name: path.read_text() for name, path in written_files(tmp_path).items()}
    WRITERS["tracker"](tmp_path / "t.tracker")
    texts["tracker"] = (tmp_path / "t.tracker").read_text()
    return texts


READERS = {
    "dataset-truth": load_dataset,
    "dataset-bare": load_dataset,
    "model-linear": load_model,
    "model-mlp1": load_model,
    "tracker": load_tracker,
}
SWAP_TOKENS = ["x", "nan", "1e999", "1.5", ""]


@st.composite
def mutated(draw, texts):
    name = draw(st.sampled_from(sorted(READERS)))
    lines = texts[name].splitlines()
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["delete", "duplicate", "truncate", "swap", "comment"]))
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if edit == "comment":
            lines.insert(i, "# " + draw(st.sampled_from(["", "1 2", "u"])))
        elif not lines:
            continue
        elif edit == "delete":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        elif edit == "truncate":
            text = "\n".join(lines)
            lines = text[:draw(st.integers(0, len(text)))].splitlines()
        else:
            parts = lines[i].split()
            if parts:
                parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(SWAP_TOKENS))
                lines[i] = " ".join(parts)
    return name, "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory for the mutated file, and the valid texts the mutations start from."""
    path = tmp_path_factory.mktemp("fuzz")
    return path, valid_files(path)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_files_load_or_fail_with_a_line(data, fuzz_dir):
    """Run under the control flow users get: a warning is recorded, not raised, and none may be."""
    directory, texts = fuzz_dir
    name, text = data.draw(mutated(texts))
    path = directory / "mutated.txt"
    path.write_text(text)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            READERS[name](path)
        assert not caught, [str(w.message) for w in caught]
    except FormatError as exc:
        assert 1 <= exc.line <= len(text.splitlines()) + 1, str(exc)


# ---------------------------------------------------------------------------
# streamed reads: the file is closed on every path, and a load holds no copy
# of the file's text
# ---------------------------------------------------------------------------

# each edit of a valid file's lines makes it fail to load
BREAKS = {
    "bad header": lambda lines: ["NOPE/1", *lines[1:]],
    "short block": lambda lines: lines[:-1],
    "illegal token": lambda lines: [*lines[:-1], " ".join(["x"] * len(lines[-1].split()))],
    "trailing content": lambda lines: [*lines, "leftover"],
}


@pytest.mark.parametrize("name", ["dataset-truth", "model-linear", "model-mlp1", "tracker"])
@pytest.mark.parametrize("edit", [None, *BREAKS])
def test_every_reader_closes_its_file(tmp_path, monkeypatch, name, edit):
    """A file left open warns when it is collected; that warning, raised as an error, reaches the hook."""
    path = tmp_path / "f.txt"
    text = valid_files(tmp_path)[name]
    if edit is not None:
        text = "\n".join(BREAKS[edit](text.splitlines())) + "\n"
    path.write_text(text)
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        try:
            READERS[name](path)
        except FormatError:
            assert edit is not None
        else:
            assert edit is None
        gc.collect()
    assert not unraisable, [str(u.exc_value) for u in unraisable]


def test_load_peaks_below_the_file_size(tmp_path):
    """The arrays take about 0.4 of the text; reading the whole text first peaked at about 2.1 times it."""
    full = generate_synthetic(SyntheticSpec(n=2000, dim=100, classes=20, pos_rate=0.3, seed=1))
    path = tmp_path / "big.wsml"
    save_dataset(make_single_positive(full, seed=1), path)
    size = path.stat().st_size
    assert size >= 4_000_000
    tracemalloc.start()
    try:
        load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size, (peak, size)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_dataset_reads_through_a_named_pipe(tmp_path):
    """A pipe has no size to bound the arrays by, so it is read whole, and loads the same."""
    path = written_files(tmp_path)["dataset-truth"]
    os.mkfifo(tmp_path / "pipe")
    writer = threading.Thread(target=(tmp_path / "pipe").write_bytes, args=(path.read_bytes(),), daemon=True)
    writer.start()
    try:
        back = load_dataset(tmp_path / "pipe")
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    want = load_dataset(path)
    assert [a.tobytes() for a in (back.features, back.states, back.truth)] == \
        [a.tobytes() for a in (want.features, want.states, want.truth)]


def test_format_error_survives_pickling():
    """A FormatError raised in a worker process reaches its parent intact."""
    err = FormatError(3, "x")
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is FormatError and str(back) == str(err) == "line 3: x" and back.line == 3
