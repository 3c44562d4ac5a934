"""The readers at a chunk size of a few characters, so every block spans many chunks.

`wsml.io.Reader` reads its file CHUNK_CHARS characters at a time. Here the
round-trip and line-number tests of the dataset, checkpoint and tracker
readers run again with chunks of 5 characters, mutated files must load to
the same bits or fail at the same line at any chunk size as at the default
one, and comment lines inside blocks are skipped wherever the chunk edges
fall.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_cli
import test_dataset
import test_io
import test_model
import wsml.io as wsml_io
from test_cli import gen_file, sp_file  # noqa: F401  (fixtures of the rerun CLI tests)
from test_io import fuzz_dir, trained  # noqa: F401  (fixtures of the rerun codec tests)
from wsml.dataset import FormatError, load_dataset, save_dataset

DEFAULT_CHUNK = wsml_io.CHUNK_CHARS
TINY_CHUNK = 5


@pytest.fixture(autouse=True, scope="module")
def tiny_chunks():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wsml_io, "CHUNK_CHARS", TINY_CHUNK)
        yield


# the round trips and line-numbered failures of each reader, rerun in tiny chunks


class TestDatasetSerialization(test_dataset.TestSerialization):
    # hypothesis ties a property test to the one class that runs it, so this class wraps its own
    test_round_trip_random = given(seed=st.integers(0, 2**32 - 1))(
        test_dataset.TestSerialization.test_round_trip_random.hypothesis.inner_test)


class TestCheckpoint(test_model.TestCheckpoint):
    pass


class TestLoadTracker(test_cli.TestLoadTracker):
    pass


class TestEval(test_cli.TestEval):
    pass


class TestGoldenBytes(test_io.TestGoldenBytes):
    pass


class TestNonFiniteReals(test_io.TestNonFiniteReals):
    pass


def outcome(reader, path):
    """What reading `path` gives: each loaded array's dtype, shape and bytes, or the FormatError."""
    try:
        loaded = reader(path)
    except FormatError as exc:
        return exc.line, str(exc)
    if hasattr(loaded, "features"):  # a dataset
        loaded = (loaded.features, loaded.states, loaded.truth)
    elif hasattr(loaded, "params"):  # a checkpoint
        loaded = (loaded.arch, *loaded.params.values())
    return [(a.dtype, a.shape, a.tobytes()) if isinstance(a, np.ndarray) else a for a in loaded]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), chunk=st.integers(1, 64))
def test_mutated_files_read_alike_in_any_chunk_size(data, chunk, fuzz_dir):  # noqa: F811
    directory, texts = fuzz_dir
    name, text = data.draw(test_io.mutated(texts))
    path = directory / "mutated-chunks.txt"
    path.write_text(text)
    reader = test_io.READERS[name]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wsml_io, "CHUNK_CHARS", DEFAULT_CHUNK)
        expected = outcome(reader, path)
        mp.setattr(wsml_io, "CHUNK_CHARS", chunk)
        assert outcome(reader, path) == expected


# every comment line is 33 characters, so at each chunk size below 33 it straddles a chunk edge
NOTE = "# a note inside the block, skipped"


def commented(path, every: int) -> list[str]:
    """Rewrite `path` with a NOTE after every `every`-th line; returns the new lines."""
    lines = []
    for i, line in enumerate(path.read_text().splitlines(), 1):
        lines.append(line)
        if i % every == 0:
            lines.append(NOTE)
    path.write_text("\n".join(lines) + "\n")
    return lines


@pytest.mark.parametrize("chunk", [*range(1, 40), DEFAULT_CHUNK])
def test_comments_inside_blocks_are_skipped_at_every_chunk_edge(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(wsml_io, "CHUNK_CHARS", chunk)
    ds = test_io.dataset_with_truth()
    path = tmp_path / "notes.wsml"
    save_dataset(ds, path, config_comment="{}")
    lines = commented(path, 4)
    # the header, #cfg and dims lines, then the 12 feature, 12 state and 12 truth rows around TRUTH
    assert [NOTE in lines[i:j] for i, j in ((3, 15), (18, 30), (34, 46))] == [True] * 3
    back = load_dataset(path)
    for got, want in ((back.features, ds.features), (back.states, ds.states), (back.truth, ds.truth)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    # an observed positive that TRUTH denies, in any state row, fails at that row's line
    data_lines = [i for i, line in enumerate(lines, 1) if not line.startswith("#")]
    for row in range(ds.n):
        lineno = data_lines[2 + ds.n + row]  # after the header, the dims line and the feature rows
        tokens = lines[lineno - 1].split()
        tokens[int(np.flatnonzero(ds.truth[row] == 0)[0])] = "1"
        path.write_text("\n".join([*lines[:lineno - 1], " ".join(tokens), *lines[lineno:]]) + "\n")
        with pytest.raises(FormatError, match="disagrees") as err:
            load_dataset(path)
        assert err.value.line == lineno


@pytest.mark.parametrize("chunk", [*range(1, 12), DEFAULT_CHUNK])
def test_every_line_break_of_splitlines_ends_a_line_at_every_chunk_edge(tmp_path, monkeypatch, chunk):
    """Lines end where str.splitlines ends them, as when the whole text was read and split at once."""
    monkeypatch.setattr(wsml_io, "CHUNK_CHARS", chunk)
    ds = test_io.dataset_with_truth()
    path = tmp_path / "breaks.wsml"
    save_dataset(ds, path, config_comment="{}")
    breaks = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    lines = path.read_text().splitlines()
    path.write_text("".join(line + breaks[i % len(breaks)] for i, line in enumerate(lines)), newline="")
    back = load_dataset(path)
    for got, want in ((back.features, ds.features), (back.states, ds.states), (back.truth, ds.truth)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
