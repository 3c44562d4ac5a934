"""Line-oriented text codec shared by the dataset, checkpoint and tracker files.

A file is a header line, an optional `#cfg` comment, then literal lines and
matrix blocks of one row per line: finite reals at 17 significant digits
(an exact float64 round trip), integers, or tokens from a vocabulary whose
position is the stored code. Lines starting with '#' are comments anywhere.
Malformed input raises FormatError with its 1-based line; writes are atomic. A real block of
PARALLEL_MIN entries or more is formatted, and one of PARSE_MIN or more parsed, by one forked process
per usable CPU, with the same bytes, arrays and errors; a process with other threads forks neither.
"""

from __future__ import annotations

import contextlib
import io as _io
import itertools
import os
import shutil
import signal
import socket
import stat
import struct
import tempfile
import threading
from array import array

import numpy as np

__all__ = ["FormatError", "REAL", "INT", "Reader", "atomic_write", "save", "usable_cpus"]

# block kinds, each also the printf format of one entry; a tuple of tokens is a vocabulary
REAL = "%.17g"
INT = "%d"

# the characters a Reader reads from its file at a time
CHUNK_CHARS = 1 << 18
# the characters str.splitlines ends a line at
_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
# the entries of the smallest REAL block formatted in forked processes: forking costs about 5 ms,
# and on 2 CPUs it broke even at 2^14 reals and took 2^15 from 31 to 22 ms
PARALLEL_MIN = 1 << 15
# the entries of the smallest REAL block parsed in forked processes: a fork, a child's start and its reaping cost
# about 5 ms, and on 2 CPUs the forked parse lost 2^16 reals whenever the serial one ran at the faster of its two
# speeds (21-25 against 28-32 ms) and took 2^17 from 44-79 to 43-51 ms
PARSE_MIN = 1 << 17


class FormatError(ValueError):
    """A data file failed to parse; `line` is the 1-based offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line, self.message = line, message

    def __reduce__(self):  # pickle rebuilds through __init__, whose arguments `args` does not hold
        return type(self), (self.line, self.message)


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


def usable_cpus() -> list[int]:
    """The CPUs this process may run on, ascending: a pinned or cpuset-limited one has fewer than the host."""
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [*range(os.cpu_count() or 1)]


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
            _write_block(fh, path, block, row_format, _cpus(kind, *block.shape, PARALLEL_MIN))


def _cpus(kind, rows: int, cols: int, least: int) -> list[int]:
    """The CPUs a block is spread over: every usable one, up to one per row, for a REAL block of at least `least`
    entries where forking is safe, else the first alone. A fork while another thread holds a lock can hang the child."""
    forked = kind is REAL and rows * cols >= least and hasattr(os, "fork") and threading.active_count() == 1
    return usable_cpus()[:rows if forked else 1]


@contextlib.contextmanager
def _forked(cpus: list[int], work):
    """Run `work(i, channel)` in a forked child pinned to cpus[i + 1] for each CPU after the first, the caller pinned
    to cpus[0], and yield the caller's ends of the channels; on leaving, kill and reap every child, restore the pin."""
    # a scheduler that does not balance load (a cpuset with sched_load_balance 0) keeps a child on its parent's CPU
    mask = os.sched_getaffinity(0) if len(cpus) > 1 and hasattr(os, "sched_setaffinity") else None
    pin = os.sched_setaffinity if mask else lambda pid, cpus: None
    pids, channels = [], []
    try:
        pin(0, cpus[:1])
        for i, cpu in enumerate(cpus[1:]):
            ours, theirs = socket.socketpair()
            with ours, theirs:  # each end lives on in one channel only, so a child that dies ends the parent's
                pids.append(os.fork())
                if pids[-1] == 0:  # the child leaves only by os._exit, so it flushes nothing it inherited
                    try:
                        pin(0, [cpu])
                        work(i, theirs.makefile("rwb"))
                        os._exit(0)
                    finally:
                        os._exit(1)
                channels.append(ours.makefile("rwb"))
        yield channels
    finally:
        pin(0, mask)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for channel in channels:
            with contextlib.suppress(OSError):  # a dead child's channel may still hold bytes that cannot be sent
                channel.close()


def _write_block(fh, path, block, row_format: str, cpus: list[int]) -> None:
    """Write `block`'s rows in one contiguous range per CPU: a forked child formats each range but the first into
    an unnamed temp file, appended after the parent's range once the child says it is done."""
    bounds = [len(block) * i // len(cpus) for i in range(len(cpus) + 1)]

    def work(i, channel):
        with open(parts[i].fileno(), "w", encoding="utf-8", newline="\n", closefd=False) as out:
            _write_block(out, path, block[bounds[i + 1]:bounds[i + 2]], row_format, [cpus[i + 1]])
        channel.write(b"\n")
        channel.flush()

    with contextlib.ExitStack() as stack:
        parts = [stack.enter_context(tempfile.TemporaryFile()) for _ in cpus[1:]]
        with _forked(cpus, work) as channels:
            for row in block[:bounds[1]]:
                fh.write(row_format % tuple(row.tolist()))
            for part, channel in zip(parts, channels):
                fh.flush()
                if not channel.read(1):
                    raise OSError(f"{path}: a forked writer failed")
                part.seek(0)
                shutil.copyfileobj(part, fh.buffer)


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


def _parse_into(out, lines: list[str], cols: int, what: str, kind, bounds):
    """Parse a block's lines into `out`; returns None, or the (index, message) of its first line at fault."""
    try:
        out[...] = _parse(lines, cols, what, kind, bounds)
    except ValueError as exc:
        for i, line in enumerate(lines):
            try:
                _parse([line], cols, what, kind, bounds)
            except ValueError as line_exc:
                return i, str(line_exc)
        return 0, str(exc)


class Reader:
    """The non-comment lines of a file after its checked header, consumed in order.

    The file is read CHUNK_CHARS characters at a time, so a load holds one chunk
    of text besides the arrays it returns. Use it in a `with` statement: leaving
    that closes the file."""

    def __init__(self, path, header: str):
        self._path, self._fh = path, open(path, "r", encoding="utf-8")
        try:
            status = os.fstat(self._fh.fileno())
            if stat.S_ISREG(status.st_mode):
                self._size = status.st_size
            else:  # a pipe or device tells no size, so it is read whole
                with self._fh:
                    self._fh = _io.StringIO(self._fh.read())
                self._size = len(self._fh.getvalue())
            self._comments = array("q")  # the line numbers of the comment lines read so far
            self._read = 0  # the lines read so far, comments included
            self._tail = ""  # the last chunk's unfinished last line
            self._lines = []  # the current chunk's non-comment lines
            self._next = 0  # the index in _lines of the next line to consume
            self._first = 0  # the non-comment lines before the current chunk
            lineno, found = self.line("header")
            if found != header:
                raise FormatError(lineno, f"bad header {found!r}, expected {header!r}")
        except BaseException:
            self._fh.close()
            raise

    def __enter__(self) -> Reader:
        return self

    def __exit__(self, *exc_info) -> None:
        self._fh.close()

    @property
    def pos(self) -> int:
        """The number of non-comment lines consumed, the header included."""
        return self._first + self._next

    def number(self, index: int) -> int:
        """The 1-based line number of the non-comment line at 0-based `index`."""
        line = index + 1
        for comment in self._comments:
            if comment > line:
                break
            line += 1
        return line

    def _fill(self) -> bool:
        """Read chunks until a line is left to consume; False at the end of the file."""
        while self._next == len(self._lines):
            text = self._fh.read(CHUNK_CHARS)
            if text:
                lines = text.splitlines()
                lines[0] = self._tail + lines[0]
                self._tail = "" if text[-1] in _BREAKS else lines.pop()
            elif self._tail:
                lines, self._tail = [self._tail], ""
            else:
                return False
            comments = [i for i, line in enumerate(lines, self._read + 1) if line.startswith("#")]
            if comments:
                self._comments.extend(comments)
                lines = [line for line in lines if not line.startswith("#")]
            self._read += len(lines) + len(comments)
            self._first += len(self._lines)
            self._lines, self._next = lines, 0
        return True

    def _take(self, count: int) -> list[str]:
        """Up to `count` next lines, all from one chunk; none at the end of the file."""
        if not self._fill():
            return []
        lines = self._lines[self._next:self._next + count]
        self._next += len(lines)
        return lines

    def _end_of_file(self, what: str) -> FormatError:
        return FormatError(self._read + 1, f"unexpected end of file, expected {what}")

    def line(self, what: str) -> tuple[int, str]:
        """(line number, stripped content) of the next line."""
        lines = self._take(1)
        if not lines:
            raise self._end_of_file(what)
        return self.number(self.pos - 1), lines[0].strip()

    def at_end(self) -> bool:
        return not self._fill()

    def end(self) -> None:
        """Reject any content after the last block."""
        if self._fill():
            found = self._lines[self._next].strip()
            raise FormatError(self.number(self.pos), f"unexpected trailing content {found!r}")

    def dims(self, names: str, least=1) -> list[int]:
        """The dimension line: one integer per name, each at least `least` (per name if a tuple)."""
        return self.block((len(names.split()),), f"{names!r} dimension", INT, (least, np.inf)).tolist()

    def block(self, shape, what: str, kind, bounds=None) -> np.ndarray:
        """The next lines as a matrix of `shape` (one line for a vector): finite
        float64 for REAL, int64 for INT, int8 token positions for a vocabulary;
        `bounds` = (lo, hi) also requires every value to lie in [lo, hi]."""
        rows, cols = (1, *shape)[-2:]
        dtype = np.int8 if isinstance(kind, tuple) else np.float64 if kind is REAL else np.int64
        # every value takes a byte of the file, so a dimension line larger than the file allocates no more
        out = np.empty((min(rows, self._size // cols), cols), dtype)
        pending, done = [], 0  # the chunks dealt but not yet checked, in file order

        def work(i, channel):  # parse each chunk sent into this copy of `out`; answer with the rows' bytes or the fault
            while True:
                lo, size = struct.unpack("qq", channel.read(16))
                lines = channel.read(size).decode().split("\n")
                fault = _parse_into(out[lo:lo + len(lines)], lines, cols, what, kind, bounds)
                payload = memoryview(out[lo:lo + len(lines)]).cast("B") if fault is None else fault[1].encode()
                channel.writelines((struct.pack("qq", -1 if fault is None else fault[0], len(payload)), payload))
                channel.flush()

        def settle(*ready):  # check the pending chunks, in file order, while the first is the parent's or ready's
            while pending and pending[0][0] in (None, *ready):
                channel, start, target, fault = pending.pop(0)
                if channel is not None:  # a child that died answers short
                    header = channel.read(16)
                    index, size = struct.unpack("qq", header) if len(header) == 16 else (-1, None)
                    if index < 0 and channel.readinto(memoryview(target).cast("B")) != size:
                        raise EOFError
                    fault = (index, channel.read(size).decode()) if index >= 0 else None
                if fault:
                    raise FormatError(self.number(start + fault[0]), fault[1])

        try:
            with _forked(_cpus(kind, *out.shape, PARSE_MIN), work) as channels:
                for channel in itertools.cycle([*channels, None]):  # each child's turn, then the parent's (None)
                    start, lines = self.pos, self._take(rows - done) if done < rows else []
                    if not lines:
                        break
                    target = out[done:done + len(lines)]
                    if channel is not None:
                        settle(channel)  # its last chunk is checked before it gets the next
                        text = "\n".join(lines).encode()
                        channel.writelines((struct.pack("qq", done, len(text)), text))
                        channel.flush()
                    fault = _parse_into(target, lines, cols, what, kind, bounds) if channel is None else None
                    pending.append((channel, start, target, fault))
                    settle()
                    done += len(lines)
                settle(*channels)
        except (ConnectionError, EOFError) as exc:  # a child that died answers short or resets its channel
            raise OSError(f"{self._path}: a forked parser died") from exc
        if done < rows:
            raise self._end_of_file(f"{what} row {done + 1}")
        return out.reshape(shape)
