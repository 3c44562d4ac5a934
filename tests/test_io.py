"""The text files wsml writes: pinned bytes, rejected input and atomic writes.

The sha256 of each file below was captured before the dataset, checkpoint
and tracker codecs were merged into one module. A change to the `%.17g`
reals, the token vocabulary, the comment line or the block layout fails
here even when a value round trip still passes. The hashes must not be
edited to make a refactor pass.
"""

import gc
import hashlib
import os
import stat
import sys
import threading
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


def fail_writes_to(monkeypatch, target, after: int) -> None:
    """Make every write after the first `after` to a file opened for `target` raise OSError."""
    real_open = open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "w" in mode and os.path.realpath(file).startswith(os.path.realpath(target)):
            real_write, left = fh.write, [after]

            def write(text):
                if left[0] == 0:
                    raise OSError("injected write failure")
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
