"""Line-oriented text codec shared by the dataset, checkpoint and tracker files.

A file is a header line, an optional `#cfg` comment, then literal lines and
matrix blocks of one row per line: finite reals at 17 significant digits
(an exact float64 round trip), integers, or tokens from a vocabulary whose
position is the stored code. Lines starting with '#' are comments anywhere.
Malformed input raises FormatError with its 1-based line; writes are atomic.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np

__all__ = ["FormatError", "REAL", "INT", "Reader", "atomic_write", "save"]

# block kinds, each also the printf format of one entry; a tuple of tokens is a vocabulary
REAL = "%.17g"
INT = "%d"


class FormatError(ValueError):
    """A data file failed to parse; `line` is the 1-based offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@contextlib.contextmanager
def atomic_write(path):
    """Text handle on a temp file beside `path`: it replaces `path` if the body completes, else is removed.
    A device or FIFO at `path` (/dev/stdout, say) has no atomic replace and is written in place."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        return
    path = os.path.realpath(path)  # through a symlink, replace the file it names and keep the link
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def save(path, header: str, comment: str | None, parts) -> None:
    """Write `header`, a `#cfg` line unless `comment` is None, then `parts`: a str
    as one line, an (array, kind) pair as one line per row (a vector is one row)."""
    with atomic_write(path) as fh:
        fh.write(header + "\n")
        if comment is not None:
            fh.write(f"#cfg {comment}\n")
        for part in parts:
            if isinstance(part, str):
                fh.write(part + "\n")
                continue
            block, kind = np.atleast_2d(part[0]), part[1]
            if isinstance(kind, tuple):
                block, kind = np.asarray(kind)[block], "%s"
            row_format = " ".join([kind] * block.shape[1]) + "\n"
            for row in block:
                fh.write(row_format % tuple(row.tolist()))


def _parse(lines: list[str], cols: int, what: str, kind, bounds):
    """Every line of a block at once; raises ValueError saying what is wrong."""
    if not all(map(str.strip, lines)):  # loadtxt would skip the blank line
        raise ValueError(f"expected {cols} {what} values, got none")
    vocab = isinstance(kind, tuple)
    # a vocabulary reads one character past its longest token, so no longer token is cut to a valid one
    dtype = f"U{max(map(len, kind)) + 1}" if vocab else np.float64 if kind is REAL else np.int64
    try:  # integers go through int(): older numpy's own parser cuts '1.5' to 1 with only a warning
        values = np.loadtxt(lines, dtype=dtype, comments=None, ndmin=2, converters=int if kind is INT else None)
    except ValueError:
        raise ValueError(f"invalid {'integer' if kind is INT else 'real number'} in {what}") from None
    if values.shape != (len(lines), cols):
        raise ValueError(f"expected {cols} {what} values, got {values.shape[1]}")
    if vocab:
        codes = np.full(values.shape, -1, dtype=np.int8)
        for code, token in enumerate(kind):
            codes[values == token] = code
        if (codes < 0).any():
            row, col = np.argwhere(codes < 0)[0]
            raise ValueError(f"illegal {what} token {lines[row].split()[col]!r}")
        return codes
    if kind is REAL and not np.isfinite(values).all():
        raise ValueError(f"non-finite real number in {what}")
    if bounds is not None and ((values < bounds[0]) | (values > bounds[1])).any():
        raise ValueError(f"{what} values must lie in [{bounds[0]}, {bounds[1]}]")
    return values


class Reader:
    """The non-comment lines of a file after its checked header, consumed in order."""

    def __init__(self, path, header: str):
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        self.eof = len(lines) + 1
        self.numbers = [i for i, line in enumerate(lines, 1) if not line.startswith("#")]
        self.lines = [lines[i - 1] for i in self.numbers]
        self.pos = 0
        lineno, found = self.line("header")
        if found != header:
            raise FormatError(lineno, f"bad header {found!r}, expected {header!r}")

    def line(self, what: str) -> tuple[int, str]:
        """(line number, stripped content) of the next line."""
        if self.at_end():
            raise FormatError(self.eof, f"unexpected end of file, expected {what}")
        self.pos += 1
        return self.numbers[self.pos - 1], self.lines[self.pos - 1].strip()

    def at_end(self) -> bool:
        return self.pos == len(self.lines)

    def end(self) -> None:
        """Reject any content after the last block."""
        if not self.at_end():
            raise FormatError(self.numbers[self.pos], f"unexpected trailing content {self.lines[self.pos].strip()!r}")

    def dims(self, names: str, least=1) -> list[int]:
        """The dimension line: one integer per name, each at least `least` (per name if a tuple)."""
        return self.block((len(names.split()),), f"{names!r} dimension", INT, (least, np.inf)).tolist()

    def block(self, shape, what: str, kind, bounds=None) -> np.ndarray:
        """The next lines as a matrix of `shape` (one line for a vector): finite
        float64 for REAL, int64 for INT, int8 token positions for a vocabulary;
        `bounds` = (lo, hi) also requires every value to lie in [lo, hi]."""
        rows, cols = (1, *shape)[-2:]
        start, self.pos = self.pos, self.pos + rows  # a short block always raises below
        lines = self.lines[start:self.pos]
        if len(lines) == rows:
            try:
                return _parse(lines, cols, what, kind, bounds).reshape(shape)
            except ValueError:
                pass  # the line-by-line pass below names the line at fault
        for i, line in enumerate(lines):
            try:
                _parse([line], cols, what, kind, bounds)
            except ValueError as exc:
                raise FormatError(self.numbers[start + i], str(exc)) from None
        # _parse checks nothing across lines, so a block whose every line passes alone is a short one
        raise FormatError(self.eof, f"unexpected end of file, expected {what} row {len(lines) + 1}")
