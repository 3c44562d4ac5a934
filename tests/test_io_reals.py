"""The numpy kernel that formats float64 blocks gives the bytes of '%.17g' % v.

`wsml.io._format_rows(block, REAL)` lays out every entry with 1e-6 < |v| < 1e17
from its 17 decimal digits in numpy, and formats any other entry with '%'.
Each test here compares it with the '%' loop on values picked where a digit
kernel goes wrong: at powers of ten, where the decimal exponent can be off by
one, at halfway cases, which must round half to even, at the edges of the
numpy range and outside it, and on hypothesis float64s and raw bit patterns.
A vocabulary of one-character tokens takes a byte gather, checked the same way.
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
