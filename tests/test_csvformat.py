"""The array CSV formatter against Python's own ``'%.17g' % x`` and ``'%d' % v``,
byte for byte, on about 1.1 million values."""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from billiards import budget, csvformat
from billiards.csvformat import FAST_MAX, FAST_MIN, INT_EXACT, _mantissas, csv_passes


def joined(columns: list[np.ndarray]) -> bytes:
    """The CSV body of ``columns``: its array passes joined."""
    return b"".join(csv_passes(columns))


def fields(column: np.ndarray) -> list[bytes]:
    """The fields of a one-column CSV body."""
    body = joined([column])
    assert body.endswith(b"\r\n")
    return body.split(b"\r\n")[:-1]


def expected(column: np.ndarray) -> list[bytes]:
    if column.dtype.kind == "f":
        return [b"%.17g" % x if math.isfinite(x) else b"" for x in column.tolist()]
    return [b"%d" % v for v in column.tolist()]


def assert_formats(column: np.ndarray) -> None:
    got, want = fields(column), expected(column)
    assert len(got) == len(want)
    bad = [(x, g, w) for x, g, w in zip(column.tolist(), got, want) if g != w]
    assert not bad, bad[:5]


def slow(x) -> np.ndarray:
    """Which values the formatter leaves to ``'%.17g' % x``."""
    return _mantissas(np.asarray(x, dtype=float))[2]


def test_random_bit_patterns():
    # both signs and every exponent, the non-finite patterns among them
    rng = np.random.default_rng(1701)
    bits = rng.integers(0, 2**64, 300_000, dtype=np.uint64, endpoint=False)
    x = bits.view(np.float64)
    assert (np.signbit(x).mean() > 0.45) and (~np.isfinite(x)).any()
    assert len(np.unique(np.frexp(x[np.isfinite(x)])[1])) > 2000
    assert_formats(x)


def test_decimal_exponents_and_sampled_grids():
    rng = np.random.default_rng(1703)
    x = 10.0 ** rng.uniform(-320.0, 308.0, 200_000) * rng.choice([-1.0, 1.0], 200_000)
    # what the CSVs hold: sums and quotients of short decimals, grid times
    grid = np.concatenate([np.linspace(0.0, 100.0, 50_001), np.linspace(-3.0, 7.0, 49_999) / 3.0])
    assert_formats(x)
    assert_formats(grid)


def test_powers_of_ten_and_their_neighbours():
    p = 10.0 ** np.arange(-300, 301).astype(float)
    x = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])
    assert_formats(np.concatenate([x, -x]))
    # a double just below 10**k whose 17 digits round up to 1e+k carries
    # into the next exponent; some do
    carries = [k for k, v in zip(range(-300, 301), p.tolist())
               if Fraction(v) < Fraction(10) ** k and b"%.17g" % v == b"1e%+03d" % k]
    assert carries


def test_zero_subnormals_powers_of_two_and_integers():
    rng = np.random.default_rng(1709)
    subnormal = rng.integers(1, 2**52, 20_000, dtype=np.uint64).view(np.float64)
    two = 2.0 ** np.arange(-1074, 1024).astype(float)
    whole = rng.integers(0, 2**53, 150_000, endpoint=True).astype(float)
    edges = np.array([0.0, -0.0, 1.0, 2.0**53 - 1, 2.0**53, 2.0**53 + 2, 1e16, 1e17,
                      99999999999999999.0, 9.9999999999999995e-05, 5e-324, 2.2250738585072014e-308])
    assert np.all(subnormal < 2.2250738585072014e-308)
    assert_formats(np.concatenate([subnormal, -subnormal, two, -two, whole, -whole, edges, -edges]))
    assert fields(np.array([0.0, -0.0, 99999999999999999.0])) == [b"0", b"-0", b"1e+17"]


def test_integer_columns_print_as_percent_d():
    rng = np.random.default_rng(1711)
    v = np.concatenate([rng.integers(-2**63, 2**63 - 1, 50_000, endpoint=True),
                        rng.integers(-10**6, 10**6, 50_000),
                        np.array([0, 1, -1, 9, 10, 99, 100, INT_EXACT - 1, INT_EXACT, INT_EXACT + 1,
                                  -INT_EXACT - 1, 10**16, 10**17, 2**63 - 1, -2**63])])
    assert_formats(v)
    assert_formats(v[v >= 0].astype(np.uint64))


def test_exact_ties_round_to_even():
    # n + 1/4 and n + 3/4 for 10**15 <= n < 2**51 are exact doubles with 18
    # significant digits, the last a 5: ties at 17 digits.  At their scale,
    # 10**1, the product is exact, and the array path rounds them to even
    rng = np.random.default_rng(1723)
    n = rng.integers(10**15, 2**51, 15_000).astype(float)
    ties = np.concatenate([n + 0.25, n + 0.75, -(n + 0.75)])
    assert all(len(Decimal(x).as_tuple().digits) == 18 for x in ties[:100].tolist())
    assert not np.any(slow(ties))
    assert_formats(ties)
    assert fields(np.array([1234567890123456.75, 1234567890123456.25])) == \
        [b"1234567890123456.8", b"1234567890123456.2"]


def test_ties_at_an_inexact_scale_take_the_fallback():
    # below 1e-6 the scale 10**(16 - K) is no double; the dyadic ties there
    # are c / 2**24 and c / 2**25, and Python rounds them
    ties = np.array([c / 2**24 for c in range(3, 16, 2)] + [1 / 2**25, 3 / 2**25])
    assert all(len(Decimal(x).normalize().as_tuple().digits) == 18 for x in ties.tolist())
    assert np.all(slow(np.concatenate([ties, -ties])))
    assert_formats(np.concatenate([ties, -ties]))
    # their neighbours are no ties, nor near one
    near = np.concatenate([np.nextafter(ties, 0.0), np.nextafter(ties, 1.0)])
    assert not np.any(slow(near))
    assert_formats(near)


def test_fast_range_edges():
    inside = np.array([FAST_MIN, np.nextafter(FAST_MIN, 1.0),
                       FAST_MAX, np.nextafter(FAST_MAX, 0.0)])
    outside = np.array([np.nextafter(FAST_MIN, 0.0), np.nextafter(FAST_MAX, np.inf), 1e300,
                        1e-300, 5e-324, 1.7976931348623157e308])
    assert not np.any(slow(np.concatenate([inside, -inside])))
    assert np.all(slow(np.concatenate([outside, -outside])))
    assert not np.any(slow([0.0, -0.0, np.inf, -np.inf, np.nan]))
    assert_formats(np.concatenate([inside, -inside, outside, -outside]))


def test_rows_separators_and_empty_fields():
    t = np.array([np.nan, 0.5, -0.0, np.inf])
    k = np.array([0, 1, -2, 10**18])
    q = np.array([1e174, np.nan, 1e-150, 1e300])
    blank = np.full(4, np.nan)
    assert joined([t, k, q, blank]) == (
        b",0,1.0000000000000001e+174,\r\n0.5,1,,\r\n-0,-2,1e-150,\r\n"
        b",1000000000000000000,1.0000000000000001e+300,\r\n")
    assert joined([np.zeros(0)]) == b""


def test_array_passes_join_into_one_body():
    # more rows than one array pass takes (the rows of three columns that
    # the byte budget fits); the first row of a later pass follows the CRLF
    # of the row before it
    rng = np.random.default_rng(1733)
    step = budget.PASS_BYTES // (3 * csvformat._VALUE_BYTES)
    m = 3 * step + 5
    t = rng.uniform(-1.0, 1.0, m)
    t[rng.integers(0, m, 50)] = np.nan
    t[step] = np.nan
    k = rng.integers(0, 5, m)
    columns = [t, k, rng.normal(size=m) * 1e-5]
    want = b"".join(b",".join(f) + b"\r\n" for f in zip(*map(expected, columns)))
    assert joined(columns) == want


@settings(max_examples=300, deadline=None)
@given(st.floats())
def test_any_float(x):
    assert fields(np.array([x])) == expected(np.array([x]))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(), st.integers(-2**63, 2**63 - 1), st.floats(width=32)),
                min_size=1, max_size=12))
def test_any_rows(rows):
    columns = [np.array(c) for c in zip(*rows)]
    assert columns[1].dtype == np.int64
    want = b"".join(b",".join(f) + b"\r\n" for f in zip(*map(expected, columns)))
    assert joined(columns) == want
