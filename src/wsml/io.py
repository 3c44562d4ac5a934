"""Line-oriented text codec shared by the dataset, checkpoint and tracker files.

A file is a header line, an optional `#cfg` comment, then literal lines and matrix blocks of one row per line: finite
reals at 17 significant digits (an exact float64 round trip), integers, or tokens from a vocabulary whose position is
the stored code. Lines starting with '#' are comments anywhere. Malformed input raises FormatError with its 1-based
line; writes are atomic. Numpy kernels format a float64 block with the bytes of '%.17g' and parse a REAL chunk of plain
decimals to loadtxt's bits (else '%' and loadtxt); a one-byte vocabulary is one byte gather or lookup. One dealer,
`_deal`, writes and reads every block in chunks: a real block of PARALLEL_MIN entries or more (written) or PARSE_MIN
(read) deals them in turn to a forked process per further usable CPU and to the caller, and takes the answers in file
order, for the serial loop's bytes, arrays and errors. A fork that fails deals to the processes started; a process
with other threads, one of which may hold a lock the child needs, forks none.
"""

from __future__ import annotations

import contextlib
import io as _io
import itertools
import os
import signal
import socket
import stat
import struct
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
# the entries of the smallest REAL block formatted in forked processes: on 2 CPUs, with the format kernel, a forked save
# of 100-column blocks beat a serial one in 20 of 41 alternated runs at 2^15 reals, 29 at 40960 and 24-37 from 49152
PARALLEL_MIN = 40960
# the entries of the smallest REAL block parsed in forked processes: with the parse kernel a forked parse won 0 and 5
# of 21 and 31 alternated runs at 2^16 and 81920, 15-19 at 98304 and 114688 (medians within 4%), and 20-23 at 2^17
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
    """Write `header`, a `#cfg` line unless `comment` is None, then `parts`: a str as one line, an (array, kind)
    pair as one line per row (a vector is one row), dealt in chunks of at most CHUNK_CHARS characters, or of one row."""
    with atomic_write(path) as fh:
        fh.reconfigure(write_through=True)  # so that a child's bytes go to fh.buffer in order with the caller's text
        fh.write(header + "\n")
        if comment is not None:
            fh.write(f"#cfg {comment}\n")
        for part in parts:
            if isinstance(part, str):
                fh.write(part + "\n")
                continue
            block, kind = np.atleast_2d(part[0]), part[1]
            step = max(1, CHUNK_CHARS // (25 * block.shape[1] or 1))  # an entry takes at most 24 characters and a space
            starts = range(0, len(block), step)
            _deal(path, _cpus(kind, block.size, PARALLEL_MIN)[:len(starts)], zip(starts, itertools.repeat(None)),
                  lambda lo, _: _format_rows(block[lo:lo + step], kind),
                  lambda lo, text: (fh.write if isinstance(text, str) else fh.buffer.write)(text))


def _cpus(kind, entries: int, least: int) -> list[int]:
    """All usable CPUs for a REAL block of `least` entries or more, else the first, as while other threads run."""
    forked = kind is REAL and entries >= least and hasattr(os, "fork") and threading.active_count() == 1
    return usable_cpus()[:None if forked else 1]


def _deal(path, cpus: list[int], chunks, serve, accept) -> None:
    """Serve each (key, lines) of `chunks` (lines: a list of str, or None) in turn in a forked child pinned to each CPU
    after the first, then in the caller pinned to the first; pass accept(key, answer) each answer in chunk order: the
    caller's as serve gave it, a child's str or array as bytes, an (index, message) fault as it is. An OSError while
    starting deals to the children started, or none; a child that dies fails with an OSError naming `path`."""
    # a scheduler that does not balance load (a cpuset with sched_load_balance 0) keeps a child on its parent's CPU
    mask = os.sched_getaffinity(0) if len(cpus) > 1 and hasattr(os, "sched_setaffinity") else None
    pin = os.sched_setaffinity if mask else lambda pid, cpus: None
    pids, channels, pending = [], [], []  # pending: the [key, channel, answer] of each chunk dealt, not accepted

    def send(channel, number, data):  # a request's key and text, or an answer's tag and str or array, as bytes
        data = data.encode() if isinstance(data, str) else memoryview(data).cast("B")
        with contextlib.suppress(ConnectionError):  # a dead child's channel breaks or resets
            channel.writelines((struct.pack("qq", number, len(data)), data))
            return channel.flush()
        raise OSError(f"{path}: a forked process died")

    def receive(channel):  # the (number, bytes) that the other end sent
        with contextlib.suppress(ConnectionError):  # a dead child's channel breaks or resets, or else it ends short
            number, size = struct.unpack("qq", head) if len(head := channel.read(16)) == 16 else (0, -1)
            if size >= 0 and len(data := channel.read(size)) == size:
                return number, data
        raise OSError(f"{path}: a forked process died")

    def take(channel, keep=0):  # take the answers still out from this child, but its last `keep`
        out = [entry for entry in pending if entry[1] is channel and entry[2] is None]
        for entry in out[:len(out) - keep]:
            tag, data = receive(channel)
            entry[2] = (tag, data.decode()) if tag >= 0 else data

    def settle():  # accept the answers in, in chunk order, up to the first still out
        while pending and pending[0][2] is not None:
            accept(pending[0][0], pending.pop(0)[2])

    try:
        with contextlib.suppress(OSError):  # short of processes or descriptors: deal to the children started
            pin(0, cpus[:1])
            for cpu in cpus[1:]:
                ours, theirs = socket.socketpair()
                with ours, theirs:  # each end lives on in one channel only, so a child that dies ends the parent's
                    pids.append(os.fork())
                    if pids[-1] == 0:  # the child leaves only by os._exit, so it flushes nothing it inherited
                        try:
                            pin(0, [cpu])
                            channel = theirs.makefile("rwb")
                            for key, text in iter(lambda: receive(channel), None):  # until the channel ends
                                answer = serve(key, text.decode().split("\n")[:-1] if text else None)
                                send(channel, *(answer if isinstance(answer, tuple) else (-1, answer)))
                        finally:
                            os._exit(1)
                    channels.append(ours.makefile("rwb"))
        for (key, lines), channel in zip(chunks, itertools.cycle([*channels, None])):  # each child, then the caller
            if channel is not None:  # a request with text waits for the child's answers, so that no full channel
                take(channel, lines is None)  # blocks both ends; one without goes one ahead, to keep the child busy
                send(channel, key, "" if lines is None else "\n".join([*lines, ""]))
            pending.append([key, channel, None if channel else serve(key, lines)])
            settle()
        for channel in channels:
            take(channel)
        settle()
    finally:  # kill and reap every child, restore the caller's CPU affinity
        pin(0, mask)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for channel in channels:
            with contextlib.suppress(OSError):  # a dead child's channel may still hold bytes that cannot be sent
                channel.close()


def _format_rows(rows, kind) -> str:  # every process formats its chunks of a block here
    if kind is REAL and rows.dtype == np.float64 and rows.shape[1]:
        return _format_reals(rows)
    if isinstance(kind, tuple):
        if rows.shape[1] and all(len(token.encode()) == 1 for token in kind):  # a byte per token, then its separator
            out = np.full((len(rows), 2 * rows.shape[1]), ord(" "), np.uint8)
            out[:, ::2], out[:, -1] = np.frombuffer("".join(kind).encode(), np.uint8)[rows], ord("\n")
            return out.tobytes().decode()
        rows, kind = np.asarray(kind)[rows], "%s"
    return ((" ".join([kind] * rows.shape[1]) + "\n") * len(rows)) % tuple(rows.ravel().tolist())


# _format_reals lays each entry out from a source row of 24 bytes: the constants of _SOURCE around its 17 digits, the
# first at byte 3 and the other 16 as four 4-digit words (_QUADS) at bytes 4-19; _LAYOUTS holds, for each decimal
# exponent k (-6 to 16), number of digits kept (1 to 17) and sign, the source byte of each of the entry's 25 bytes
_DIGITS = "ABCDEFGHIJKLMNOPQ"
_SOURCE = "-.0" + _DIGITS + "e56\0"
_SUB = 1 << 11  # the entries formatted at a time, so that the temporaries stay small
_LAYOUTS = np.frombuffer("".join([(sign + (
    _DIGITS[0] + "." * (m > 1) + _DIGITS[1:m] + f"e-0{-k}" if k < -4 else
    "0." + "0" * (-k - 1) + _DIGITS[:m] if k < 0 else
    _DIGITS[:k + 1] + "." * (m > k + 1) + _DIGITS[k + 1:m])).ljust(25, "\0")
    for k in range(-6, 17) for m in range(1, 18) for sign in ("", "-")]).translate(
    {ord(c): i for i, c in enumerate(_SOURCE)}).encode(), np.uint8).reshape(-1, 25)
_QUADS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), axis=-1).view(np.uint32).ravel()
_ROWS = 24 * np.arange(_SUB, dtype=np.int32)[:, None]  # int32: a layout row plus it is a 4-byte index


def _split(x):  # Veltkamp: x == hi + lo, each of at most 26 significant bits
    t = x * 134217729.0
    hi = t - (t - x)
    return hi, x - hi


_POW10 = 10.0 ** np.arange(23)  # each exact
_POW10_HI, _POW10_LO = _split(_POW10)


def _times_pow10(a, s):
    """hi + lo == a * 10**s exactly (Dekker's two-product), for 0 <= s <= 22."""
    hi, (ah, al), bh, bl = a * _POW10[s], _split(a), _POW10_HI[s], _POW10_LO[s]
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _format_reals(rows) -> str:
    """'%.17g' % v of every entry v of a float64 block, laid out as by _format_rows. An entry with 1e-6 < |v| < 1e17
    is laid out from its 17 digits: with k its decimal exponent, |v| * 10**(16 - k) is an exact product hi + lo, and as
    a double from 10**16 up is an even integer, hi + rint(lo) rounds it half to even, as '%' does. Any other entry (0,
    a subnormal, one far from 1, a non-finite one) goes through '%'."""
    values, text = rows.ravel(), []
    ends = np.full(values.size, ord(" "), np.uint8)
    ends[rows.shape[1] - 1::rows.shape[1]] = ord("\n")
    source = np.tile(np.frombuffer(_SOURCE.encode(), np.uint8), (min(values.size, _SUB), 1))
    for start in range(0, values.size, _SUB):
        v = values[start:start + _SUB]
        src = source[:v.size]
        a = np.abs(v)
        fast = (a > 1e-6) & (a < 1e17)  # the double 1e-6 is below 10**-6, so k >= -6 and 10**(16 - k) is exact
        a[~fast] = 1.0
        k = np.clip(np.floor(np.log10(a)), -6, 16).astype(np.int64)
        hi, lo = _times_pow10(a, 16 - k)
        low, high = (hi < 1e16) | (hi == 1e16) & (lo < 0), (hi > 1e17) | (hi == 1e17) & (lo >= 0)
        if (low | high).any():  # log10 rounded across a power of ten: the exact product is outside [10**16, 10**17)
            k[low], k[high] = k[low] - 1, k[high] + 1
            hi, lo = _times_pow10(a, 16 - k)
        n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
        k += (up := n == 10 ** 17)  # rounded up to the next power of ten
        n[up] = 10 ** 16
        src[:, 3] = n // 10 ** 16 + ord("0")
        eights = np.stack([n // 10 ** 8 % 10 ** 8, n % 10 ** 8], axis=1)
        fours = eights // 10 ** 4
        src.view(np.uint32)[:, 1:5] = _QUADS[np.stack([fours, eights - fours * 10 ** 4], axis=2).reshape(-1, 4)]
        kept = 17 - np.argmax(src[:, 19:2:-1] != ord("0"), axis=1)  # the digits up to the last nonzero one
        out = np.take(src, np.take(_LAYOUTS, ((k + 6) * 17 + kept - 1) * 2 + (v < 0), axis=0) + _ROWS[:v.size])
        out[:, -1] = ends[start:start + _SUB]
        if (slow := np.flatnonzero(~fast)).size:  # '%.17g' takes at most 24 characters
            padded = "".join([("%.17g" % x).ljust(24, "\0") for x in v[slow].tolist()])
            out[slow, :24] = np.frombuffer(padded.encode(), np.uint8).reshape(-1, 24)
        text.append(out[out != 0].tobytes())
    return b"".join(text).decode()


# _parse_reals reads a mantissa from the 24 bytes that end it as three little-endian words: _KEEP[c] clears c bytes
# before it, and each (mask, factor, shift) of _SWAR folds pairs, so 8 ASCII digits become their integer (Lemire, 2021)
_KEEP = np.array([[2**64 - 256 ** min(max(c - 8 * w, 0), 8) for w in range(3)] for c in range(25)], "<u8").view("V24")
_SWAR = [(np.uint64(m), np.uint64(f), np.uint64(s)) for m, f, s in (
    (0x0F0F0F0F0F0F0F0F, 2561, 8), (0x00FF00FF00FF00FF, 6553601, 16), (0x0000FFFF0000FFFF, 42949672960001, 32))]
_TENS = 10 ** np.arange(20, dtype=np.uint64)


def _parse_reals(lines: list[str], cols: int):
    """The float64 rows of a REAL chunk whose every line is `cols` tokens [-]digits[.digits][e(+|-)dd] split by single
    spaces, with at most 24 bytes before any 'e', else None. A token of digit integer N and q = (its fraction digits) -
    (its exponent), with N < 10**18 and 0 <= q <= 22, is N / 10**q rounded to nearest: x = fl(fl(N) / 10**q) is within
    1.5 ulp of it, the residual r = N - x * 10**q is exact but for one rounding (Dekker's two-product), and r against
    half the gap to each neighbour of x moves x one ulp. Any other token, and one whose r is too near a bound to
    decide, is float(token), as loadtxt reads it. The temporaries go early, and a chunk of over 2^17 characters is
    read by halves, to keep a load's peak memory down."""
    if len(lines) > 1 and sum(map(len, lines)) > 1 << 17:
        halves = [_parse_reals(lines[:len(lines) // 2], cols), _parse_reals(lines[len(lines) // 2:], cols)]
        return None if halves[0] is None or halves[1] is None else np.concatenate(halves)
    buf = np.frombuffer(b"\0" * 24 + "\n".join([*lines, ""]).encode() + b"\0" * 24, np.uint8).copy()  # room for windows
    b = buf[24:-24]
    ends = np.flatnonzero(b <= 32)  # the byte after each token
    if not ends.size or ends.size != len(lines) * cols or not (  # single spaces, and a newline after each line
            ((seps := b[ends].reshape(len(lines), cols))[:, :-1] == 32).all() and (seps[:, -1] == 10).all()):
        return None
    first, e = np.concatenate([[0], ends[:-1] + 1]), np.flatnonzero(b == 101)  # the tokens' starts, each e
    first += (neg := b[first] == 45)  # each mantissa's first byte
    token, sign = np.searchsorted(ends, e), buf[25 + e].astype(np.int64)  # the exponent's sign is checked below
    size, at, dots = ends - first, np.zeros(ends.size, np.int64), np.count_nonzero(b == 46)  # each mantissa's bytes
    size[token], power = e - first[token], (np.int64(10) * buf[26 + e] + buf[27 + e] - 528) * (44 - sign)
    for offset in range(1, 23):  # each dot's offset in its mantissa: 1 for all of '%.17g' below 10 in magnitude
        hit = (buf[24 + offset + first] == 46) & (offset < size - 1)  # a digit either side
        at += offset * hit  # a second dot in a token leaves fewer dotted tokens than dots, as checked below
        if not (dots := dots - np.count_nonzero(hit)):
            break
    if dots or ((size < 1) | (size > 24)).any() or (ends[token] != e + 4).any() or (np.abs(sign - 44) != 1).any() or (
            np.count_nonzero(b - 48 > 9) != ends.size + np.count_nonzero(neg) + 2 * e.size + np.count_nonzero(at)):
        return None  # else no byte is other than a digit, a separator, a sign, a dot or e
    buf[np.where(at > 0, 24 + first + at, 0)] = 0  # each dot a zero digit, taken out of N below
    words = np.ndarray((buf.size - 23,), "V24", buf, strides=(1,))[first + size].view("<u8").reshape(-1, 3)
    del buf, b, ends, first
    words &= _KEEP[24 - size].view("<u8").reshape(-1, 3)  # clear the bytes before the mantissa
    for mask, factor, shift in _SWAR:
        words = (words & mask) * factor >> shift
    slow = words[:, 0] >= 100  # N of 10**18 or more
    n = words[:, 0] * np.uint64(10 ** 16) + words[:, 1] * np.uint64(10 ** 8) + words[:, 2]
    q = np.where(at > 0, size - at - 1, 0)  # the fraction's digits, less the exponent below
    f = np.minimum(q + 18 * (at == 0), 18)  # the zero's place; at 18 or above it, N's digits there are zeros
    n = np.minimum(n - n // _TENS[f + 1] * 9 * _TENS[f], 10 ** 18).view(np.int64)  # a slow N kept in range
    q[token] -= power
    del words, f, size, at
    slow |= q != (q := np.clip(q, 0, 22))
    x = (nh := n.astype(np.float64)) / _POW10[q]
    hi, lo = _times_pow10(x, q)
    r = nh - hi + (n - nh.astype(np.int64)) - lo  # nh - hi (Sterbenz) and N - nh are exact, and so is their sum
    del nh, hi, lo, n
    up = (((bits := x.view(np.int64)) + 1).view(np.float64) - x) * _POW10[q] / 2  # half the gap to the next double
    down = (x - (bits - (bits > 0)).view(np.float64)) * _POW10[q] / 2  # to the one before (smaller below 2**k), * 10**q
    tol = np.abs(r) * 2.0 ** -50  # r's one rounding is at most 2**-53 of it
    slow |= (np.abs(r - up) < tol) | (np.abs(r + down) < tol) | (r > 3 * up - tol) | (r < tol - 2.5 * down)
    x = (bits + (r > up) - (r < -down) | neg.astype(np.int64) << 63).view(np.float64)  # the sign last: -0 stays
    for i in np.flatnonzero(slow).tolist():
        x[i] = float(lines[i // cols].split(" ")[i % cols])
    return x.reshape(len(lines), cols)


def _parse_tokens(lines: list[str], cols: int, kind):
    """The codes of a chunk of one-byte tokens, each before a space or the line's end, by a byte lookup; else None."""
    rows = np.frombuffer("\n".join([*lines, ""]).encode(), np.uint8)
    if not cols or rows.size != 2 * cols * len(lines) or any(len(token.encode()) != 1 for token in kind):
        return None
    rows, table = rows.reshape(len(lines), -1), np.full(256, -1, np.int8)
    table[np.frombuffer("".join(kind).encode(), np.uint8)] = np.arange(len(kind))
    codes = table[rows[:, ::2]]
    return codes if (rows[:, 1:-1:2] == 32).all() and (rows[:, -1] == 10).all() and (codes >= 0).all() else None


def _parse(lines: list[str], cols: int, what: str, kind, bounds):
    """Every line of a block at once (by a kernel above, else loadtxt); raises ValueError saying what is wrong."""
    if not all(map(str.strip, lines)):  # loadtxt would skip the blank line
        raise ValueError(f"expected {cols} {what} values, got none")
    vocab = isinstance(kind, tuple)
    values = _parse_tokens(lines, cols, kind) if vocab else _parse_reals(lines, cols) if kind is REAL and (
        len(lines) * cols >= 800) else None  # below 800 tokens the kernel's fixed cost loses to loadtxt
    if values is None:
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
            # a chunk holds a comment line only if its text holds a '#', or its first line's joined tail starts one
            comments = [i for i, line in enumerate(lines, self._read + 1) if line.startswith("#")] if (
                "#" in text or lines[:1] and lines[0].startswith("#")) else []
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
        first = self.pos  # the index of the block's first line, so a chunk's first row is its line's index less this

        def chunks():  # the block's lines as the file's chunks give them, each keyed by its first line's index
            while self.pos - first < rows and (lines := self._take(rows - self.pos + first)):
                yield self.pos - len(lines), lines

        def serve(start, lines):  # a chunk's rows, parsed into `out` (a child's copy of it), or its first fault
            return _parse_into(values := out[start - first:][:len(lines)], lines, cols, what, kind, bounds) or values

        def accept(start, answer):  # the chunks' answers in file order, so the first fault raised is the file's
            if isinstance(answer, tuple):
                raise FormatError(self.number(start + answer[0]), answer[1])
            if isinstance(answer, bytes):  # a child's rows; the caller parsed its own into `out`
                out[start - first:].reshape(-1)[:len(answer) // out.itemsize] = np.frombuffer(answer, dtype)

        _deal(self._path, _cpus(kind, out.size, PARSE_MIN)[:len(out)], chunks(), serve, accept)
        if self.pos - first < rows:
            raise self._end_of_file(f"{what} row {self.pos - first + 1}")
        return out.reshape(shape)
