"""The numpy kernels that format and parse float64 blocks agree with '%.17g' and loadtxt.

`wsml.io._format_rows(block, REAL)` lays out every entry with 1e-6 < |v| < 1e17
from its 17 decimal digits in numpy, and formats any other entry with '%'.
Each test here compares it with the '%' loop on values picked where a digit
kernel goes wrong: at powers of ten, where the decimal exponent can be off by
one, at halfway cases, which must round half to even, at the edges of the
numpy range and outside it, and on hypothesis float64s and raw bit patterns.
A vocabulary of one-character tokens takes a byte gather, checked the same way.

`wsml.io._parse_reals(lines, cols)` reads a chunk of plain decimal tokens to
float64 in numpy, or returns None for loadtxt to read it. Each parse test
compares it with loadtxt bit for bit: on everything the writer tests format,
on exact decimal midpoints and tokens next to them, on spellings that must
fall back, and on hypothesis decimal strings. One-character vocabularies are
read by a byte lookup, checked against the loadtxt path the same way.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wsml.io as wsml_io


def expected(block) -> str:
    return "".join(" ".join("%.17g" % v for v in row) + "\n" for row in block.tolist())


def assert_formats_as_percent(values, cols: int = 1) -> None:
    """Every entry of `values`, as one column and as rows of `cols` entries, against the '%' loop."""
    values = np.asarray(values, dtype=np.float64).ravel()
    for block in (values[:, None], values[:len(values) // cols * cols].reshape(-1, cols)):
        got = wsml_io._format_rows(block, wsml_io.REAL)
        if got != expected(block):
            bad = [(v, g, e) for v, g, e in zip(block.ravel().tolist(), got.split(), expected(block).split()) if g != e]
            pytest.fail(f"{len(bad)} entries differ from '%.17g', first {bad[:3]}")


def powers_of_ten(low: int, high: int) -> np.ndarray:
    """Every power of ten from 10**low to 10**high and the doubles 1 and 2 ulps either side, of both signs."""
    powers = np.array([float(f"1e{e}") for e in range(low, high + 1)])
    up, down = np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf)
    near = np.concatenate([powers, up, down, np.nextafter(up, np.inf), np.nextafter(down, -np.inf)])
    return np.concatenate([near, -near])


def test_powers_of_ten_and_their_neighbours():
    assert_formats_as_percent(powers_of_ten(-8, 18), cols=5)


def test_the_double_nearest_a_millionth_keeps_its_seventeen_digits():
    # it is below 10**-6, so its 17 digits round to 10**16 with one decimal exponent and stay 17 with the other
    assert "%.17g" % 1e-06 == "9.9999999999999995e-07" == "%.17g" % 9.99999999999999955e-07
    assert_formats_as_percent([9.99999999999999955e-07, -9.99999999999999955e-07, 1.0000000000000002e-06])


def test_halfway_cases_round_half_to_even():
    ties = [1e15 + 0.25, 1e15 + 0.75, 1e15 + 1.25, 1e15 + 1.75] + [j * 1e12 + 0.25 for j in range(1, 100)]
    assert "%.17g" % (1e15 + 0.25) == "1000000000000000.2" and "%.17g" % (1e15 + 0.75) == "1000000000000000.8"
    assert_formats_as_percent(ties + [-t for t in ties], cols=4)


def test_zeros_subnormals_and_the_extremes_take_the_percent_path():
    tiny = np.finfo(np.float64).tiny
    values = [0.0, -0.0, 5e-324, -5e-324, 1e-310, tiny, -tiny, np.nextafter(tiny, 0.0), 1e-300, 1e300,
              np.finfo(np.float64).max, -np.finfo(np.float64).max, np.inf, -np.inf, np.nan, 1e17, 1e-7, 1.5]
    assert_formats_as_percent(values, cols=3)


def test_integer_valued_and_negative_floats():
    rng = np.random.default_rng(3)
    integers = np.concatenate([np.arange(-1000, 1001), rng.integers(-10**17, 10**17, 5000),
                               2.0 ** np.arange(60), 10 ** np.arange(17) * rng.integers(1, 10, 17)])
    assert_formats_as_percent(integers.astype(np.float64), cols=7)
    assert_formats_as_percent(-np.abs(rng.standard_normal(5000)) * 10.0 ** rng.integers(-7, 18, 5000), cols=9)


def test_raw_bit_patterns():
    bits = np.random.default_rng(5).integers(0, 2**64, 50000, dtype=np.uint64, endpoint=False)
    assert_formats_as_percent(bits.view(np.float64), cols=10)


def test_uniform_in_log_space_over_the_numpy_range():
    rng = np.random.default_rng(6)
    values = np.exp(rng.uniform(np.log(1e-7), np.log(1e18), 50000)) * rng.choice([-1.0, 1.0], 50000)
    assert_formats_as_percent(values, cols=100)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, width=64), min_size=1, max_size=40),
       st.integers(1, 8))
def test_hypothesis_floats(values, cols):
    assert_formats_as_percent(values, cols=cols)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_hypothesis_bit_patterns(bits):
    assert_formats_as_percent(np.array(bits, dtype=np.uint64).view(np.float64), cols=3)


def test_blocks_longer_than_a_sub_block_and_strided_rows():
    """Entries in several sub-blocks, rows that end inside one, and a block that is not contiguous."""
    block = np.random.default_rng(8).standard_normal((3 * wsml_io._SUB // 7 + 1, 7))
    assert wsml_io._format_rows(block, wsml_io.REAL) == expected(block)
    assert wsml_io._format_rows(block.T, wsml_io.REAL) == expected(block.T)
    assert wsml_io._format_rows(block[::3, 1:], wsml_io.REAL) == expected(block[::3, 1:])


def test_other_dtypes_keep_the_percent_path():
    assert wsml_io._format_rows(np.array([[0.1, 2.0]], dtype=np.float32), wsml_io.REAL) == "%.17g %.17g\n" % (
        np.float32(0.1), 2.0)
    assert wsml_io._format_rows(np.arange(6).reshape(2, 3), wsml_io.INT) == "0 1 2\n3 4 5\n"
    with pytest.raises(TypeError):
        wsml_io._format_rows(np.array([[0.5, "not a real"]], dtype=object), wsml_io.REAL)


@pytest.mark.parametrize("tokens", [("0", "1", "u", "c"), ("0", "1"), ("ab", "c"), ("é", "x")])
def test_vocabularies_format_as_percent_s(tokens):
    codes = np.random.default_rng(len(tokens)).integers(0, len(tokens), (40, 6)).astype(np.int8)
    words = np.asarray(tokens)[codes]
    assert wsml_io._format_rows(codes, tokens) == "".join(" ".join(row) + "\n" for row in words.tolist())
    assert wsml_io._format_rows(codes[:, :0], tokens) == "\n" * 40


# ---------------------------------------------------------------------------
# parsing: the kernel reads loadtxt's bits, or hands the chunk to loadtxt
# ---------------------------------------------------------------------------


def loadtxt_bits(lines, cols):
    """The int64 bit patterns loadtxt reads from `lines`."""
    return np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2).reshape(len(lines), cols).view(np.int64)


def as_lines(tokens, cols):
    tokens = list(tokens)[:len(tokens) // cols * cols]
    return [" ".join(tokens[i:i + cols]) for i in range(0, len(tokens), cols)]


def assert_parses_as_loadtxt(tokens, cols: int = 1, fast: bool = True) -> None:
    """Every token of `tokens`, as one column and as rows of `cols`, read by the kernel (which must take the chunk
    when `fast`) and by the REAL parse path, against loadtxt bit for bit."""
    for lines, width in ((as_lines(tokens, 1), 1), (as_lines(tokens, cols), cols))[:1 + (len(tokens) >= cols)]:
        expected = loadtxt_bits(lines, width)
        got = wsml_io._parse_reals(lines, width)
        if fast:
            assert got is not None, lines[:3]
        if got is not None and not np.array_equal(got.view(np.int64), expected):
            bad = [(t, g, e) for t, g, e in zip(" ".join(lines).split(), got.ravel().tolist(),
                                                  expected.view(np.float64).ravel().tolist()) if g != e]
            pytest.fail(f"{len(bad)} entries differ from loadtxt, first {bad[:3]}")
        parsed = wsml_io._parse(lines, width, "feature", wsml_io.REAL, None)
        assert np.array_equal(parsed.view(np.int64), expected)


def formatted(values) -> list[str]:
    values = np.asarray(values, dtype=np.float64).ravel()
    return wsml_io._format_rows(values[np.isfinite(values)][:, None], wsml_io.REAL).split()


def test_parse_reads_back_every_value_the_writer_tests_format():
    rng = np.random.default_rng(11)
    ties = [1e15 + 0.25, 1e15 + 0.75, 1e15 + 1.25] + [j * 1e12 + 0.25 for j in range(1, 100)]
    values = np.concatenate([
        powers_of_ten(-8, 18), ties, [9.99999999999999955e-07, -9.99999999999999955e-07, 1.0000000000000002e-06],
        [0.0, -0.0, 5e-324, 1e-310, 1e-300, 1e300, np.finfo(np.float64).max, 1e17, 1e-7, 1.5],
        np.arange(-1000, 1001), rng.integers(-10**17, 10**17, 3000), 2.0 ** np.arange(60),
        rng.integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64),
        np.exp(rng.uniform(np.log(1e-7), np.log(1e18), 20000)) * rng.choice([-1.0, 1.0], 20000),
        rng.standard_normal(20000)])
    tokens = formatted(values)
    assert_parses_as_loadtxt(tokens, cols=7, fast=False)  # '%' spells 1e+17 and 5e-324, which q = 0..22 leaves out
    kept = np.abs(values[np.isfinite(values)])
    typical = formatted(values[np.isfinite(values)][(kept == 0) | (kept > 1e-6) & (kept < 1e17)])
    assert_parses_as_loadtxt(typical, cols=7)  # every entry the numpy format kernel lays out
    back = wsml_io._parse_reals(typical, 1).ravel()
    assert np.array_equal(back, np.array([float(t) for t in typical]))


def test_a_standard_normal_block_round_trips_in_the_readers_chunks():
    block = np.random.default_rng(3).standard_normal((3000, 100))
    lines = wsml_io._format_rows(block, wsml_io.REAL).splitlines()
    for start in range(0, 3000, 130):
        got = wsml_io._parse_reals(lines[start:start + 130], 100)
        assert got is not None and np.array_equal(got.view(np.int64), block[start:start + 130].view(np.int64))


def test_exact_decimal_midpoints_round_half_to_even():
    # 2**53 + 1 and + 3 lie halfway between doubles; a trailing '.0' or an exponent makes q > 0, where the kernel's
    # residual is an exact tie that it must hand to float()
    midpoints = ["9007199254740993", "9007199254740995", "18014398509481986", "18014398509481990"]
    spelled = [*midpoints, *(m + ".0" for m in midpoints), *(m[:-1] + "." + m[-1] + "e+01" for m in midpoints),
               "9007199254740993.00", "900719925474099.3e+01", "9007199254740993e-00", "90071992547409930e-01"]
    near = [m + ".0000001" for m in midpoints] + [str(int(m) - 1) + ".9999999" for m in midpoints]
    assert float("9007199254740993.0") == 2.0 ** 53 and float("9007199254740995.0") == 2.0 ** 53 + 4
    assert_parses_as_loadtxt(spelled + near + ["-" + t for t in spelled + near], cols=4, fast=False)
    assert wsml_io._parse_reals(["9007199254740993.0 -9007199254740995.0"], 2).tolist() == [[2.0 ** 53,
                                                                                         -(2.0 ** 53 + 4)]]


def test_halfway_cases_between_small_doubles():
    """The decimal midpoint of two adjacent doubles, cut to the digits the kernel reads and nudged either way."""
    rng = np.random.default_rng(12)
    tokens = []
    for x in rng.uniform(1e-3, 1e3, 400).tolist():
        mid = (np.float64(x) + np.nextafter(x, np.inf)) / 2  # a float: not the midpoint itself, but within a few ulps
        for digits in (16, 17, 18):
            tokens.append("%.*e" % (digits - 1, mid))
    tokens = [t.replace("e+00", "") for t in tokens]
    assert_parses_as_loadtxt(tokens, cols=6, fast=False)


def test_zeros_and_integers_without_a_dot():
    tokens = ["0", "-0", "0.0", "-0.0", "00", "007", "-007.50", "123", "-456", "0.000", "1", "-1",
              "999999999999999999", "123456789012345678", "100000000000000000"]
    assert_parses_as_loadtxt(tokens, cols=3)
    got = wsml_io._parse_reals(["0 -0 -0.0"], 3)
    assert np.array_equal(got.view(np.int64), np.array([[0.0, -0.0, -0.0]]).view(np.int64))


@pytest.mark.parametrize("token", ["1.", ".5", "+1", "1E5", "1e5", "1e+5", "1e+005", "1e++05", "1.2.3", "--1",
                                   "1-2", "e+05", "-", "-e+05", "1e+05e", "nan", "inf", "-inf", "1x", "0x10",
                                   "1_000", "٣", "1.5e-0x"])
def test_other_spellings_take_the_loadtxt_path(token):
    lines = ["0.5 " + token + " 2", "1 2 3"]
    assert wsml_io._parse_reals(lines, 3) is None
    try:
        expected = loadtxt_bits(lines, 3)
    except ValueError:
        with pytest.raises(ValueError, match="invalid real number in feature"):
            wsml_io._parse(lines, 3, "feature", wsml_io.REAL, None)
        return
    if not np.isfinite(expected.view(np.float64)).all():
        with pytest.raises(ValueError, match="non-finite real number in feature"):
            wsml_io._parse(lines, 3, "feature", wsml_io.REAL, None)
        return
    assert np.array_equal(wsml_io._parse(lines, 3, "feature", wsml_io.REAL, None).view(np.int64), expected)


@pytest.mark.parametrize("lines", [["1\t2 3"], ["1  2 3"], [" 1 2 3"], ["1 2 3 "], ["1 2"], ["1 2 3 4"],
                                   ["1 2 3", "4 5"], ["1 2 3\u00a0"], ["1 2 1e"], ["1 2 1e+"], ["1 2 1e+0"]])
def test_other_layouts_take_the_loadtxt_path(lines):
    assert wsml_io._parse_reals(lines, 3) is None


def test_long_large_and_small_tokens_read_through_float():
    """Tokens that pass the grammar but not the kernel's range are each float(token)."""
    tokens = ["1e+05", "1.5e+17", "1e-23", "1e-99", "9.9e+99", "1234567890123456789", "12345678901234567890",
              "99999999999999999999", "1234567890.1234567890123", "-0.00012345678901234567",
              "1.2345678901234567e-05", "1.2345678901234567e-06", "1.2345678901234567e-07", "-000000000000000000000001"]
    assert_parses_as_loadtxt(tokens, cols=7)


@pytest.mark.parametrize("token", ["0.0000000000000000000000001", "00000000000000000000000000000001",
                                   "0.12345678901234567890123", "-" + "9" * 30 + ".5e-10", "1" + "0" * 320],
                         ids=lambda token: f"{len(token)} bytes")
def test_mantissas_over_24_bytes_take_the_loadtxt_path(token):
    lines = ["0.5 " + token + " 2"] * 300  # enough tokens for _parse to offer the chunk to the kernel
    assert wsml_io._parse_reals(lines, 3) is None
    expected = loadtxt_bits(lines, 3)
    if np.isfinite(expected.view(np.float64)).all():
        assert np.array_equal(wsml_io._parse(lines, 3, "feature", wsml_io.REAL, None).view(np.int64), expected)
    else:
        with pytest.raises(ValueError, match="non-finite real number in feature"):
            wsml_io._parse(lines, 3, "feature", wsml_io.REAL, None)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.from_regex(r"-?[0-9]{1,20}(\.[0-9]{0,20})?(e[+-][0-9]{2})?", fullmatch=True), min_size=1,
                max_size=30), st.integers(1, 6))
def test_hypothesis_decimal_strings(tokens, cols):
    assert_parses_as_loadtxt(tokens, cols=cols, fast=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.from_regex(r"-?[0-9]{1,9}\.[0-9]{1,12}(e-0[0-9])?", fullmatch=True), min_size=1, max_size=30))
def test_hypothesis_strings_inside_the_grammar(tokens):
    assert_parses_as_loadtxt(tokens, cols=3)


def test_a_bad_token_gives_the_line_and_message_loadtxt_gave(tmp_path):
    block = np.random.default_rng(13).standard_normal((200, 30))
    text = wsml_io._format_rows(block, wsml_io.REAL).splitlines()
    for bad, message in (("1.2.3", "invalid real number in feature"), ("nan", "non-finite real number in feature"),
                         ("9" * 400, "non-finite real number in feature"),
                         ("0.5 0.5", "expected 30 feature values, got 31")):
        lines = list(text)
        row = lines[150].split()
        row[7] = bad
        lines[150] = " ".join(row)
        out = np.empty((200, 30))
        assert wsml_io._parse_into(out, lines, 30, "feature", wsml_io.REAL, None) == (150, message)
        path = tmp_path / "bad.txt"
        path.write_text("HEAD\n" + "\n".join(lines) + "\n")
        with wsml_io.Reader(path, "HEAD") as reader, pytest.raises(wsml_io.FormatError) as info:
            reader.block((200, 30), "feature", wsml_io.REAL)
        assert (info.value.line, info.value.message) == (152, message)


@pytest.mark.parametrize("tokens", [("0", "1", "u", "c"), ("0", "1")])
def test_one_byte_vocabularies_are_read_by_a_lookup(tokens):
    codes = np.random.default_rng(len(tokens)).integers(0, len(tokens), (40, 6)).astype(np.int8)
    lines = wsml_io._format_rows(codes, tokens).splitlines()
    assert np.array_equal(wsml_io._parse_tokens(lines, 6, tokens), codes)
    assert np.array_equal(wsml_io._parse(lines, 6, "state", tokens, None), codes)
    for bad in ("0 1 x 1 0 1", "0 1 00 1 0", "0 1  0 1 0 1", "0\t1 0 1 0 1", " 0 1 0 1 0 1", "0 1 0 1 0 é"):
        assert wsml_io._parse_tokens([bad, *lines[1:]], 6, tokens) is None
    assert wsml_io._parse_tokens(lines, 6, ("ab", "c")) is None
    with pytest.raises(ValueError, match="illegal state token 'x'"):
        wsml_io._parse(["0 1 x 0 1 0"] + lines[1:], 6, "state", tokens, None)
