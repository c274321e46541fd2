"""Exact array formatting of CSV rows: C's ``%.17g`` for floats, ``%d`` for integers.

:func:`csv_passes` gives the bytes that ``'%.17g' % x`` and ``'%d' % v``
give, field by field, with one array pass over each slice of a file's rows
that the byte budget fits (:data:`_VALUE_BYTES` a value) instead of one
Python call per value.  Every field fills a slot of five eight-byte words,
computed a word at a time over all fields (words-major); a byte that is not
printed is 0, and the nonzero bytes, read row by row, are the file body.

A finite float ``x`` with ``FAST_MIN <= |x| <= FAST_MAX`` is scaled to
``y = |x| * 10**(16 - K)`` in ``[1e16, 1e17)`` in double-double arithmetic
(Dekker, Numer. Math. 18, 224 (1971)): ``10**p`` is stored as its correctly
rounded pair ``(hi, lo)``, the product ``|x| * hi`` is exact, and
``|y - exact| < 2**-100 * y``, below ``1e-13`` on the integer scale of ``y``.
``y`` rounded to the nearest integer, ties to even, is the 17-digit
mantissa ``N``.  For ``1e-6 <= |x| < 1e17`` the scale ``10**(16 - K)`` is a
double, ``lo`` is 0 and ``y`` is exact, ties included (a double between
``2**49`` and ``2**51`` with an odd multiple of 1/8 or 1/4 in its fraction is
one).  Elsewhere, where the fraction of ``y`` lies within :data:`TIE_BAND` of
0.5, the rounding could go either way, and that value is formatted by
``'%.17g' % x`` alone, as is every value outside the range.  Zero is written
``0`` or ``-0``, a non-finite value as an empty field.  An integer
takes the float path, whose ``%.17g`` is its ``%d`` while ``|v| <= 2**53``;
a larger one is formatted by ``'%d' % v``.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np

from . import budget

# |x| range of the array path: every term of the double-double product
# stays a normal double, so the product is exact
FAST_MIN = 1e-220
FAST_MAX = 1e250
# distance of the fraction of an inexact y from 0.5 below which
# '%.17g' % x decides
TIE_BAND = 1e-6
# integers up to this magnitude are exact doubles
INT_EXACT = 2**53

_K_MAX = 260                       # decimal exponents tabled: |K| <= _K_MAX
_SPLIT = 134217729.0               # 2**27 + 1, Dekker's splitting constant
# A field's slot is five words: word 0 holds the separator before the field
# (CRLF before the first column, a comma before the others), the sign and
# "0.000", right-aligned; words 1-3 the digits and the point; word 4 "e+XX"
# or "e+XXX".  The 17 digits are looked up four at a time; those printed
# before the point keep their place, the point takes the place of the first
# digit after them, and the digits after the point move one byte on.  So a
# field's printed bytes are one run (two in exponent notation), which the
# compaction copies whole.
_WORDS = 5
_QUADS = 10**4 + 10                # digit table rows: four digits, then one
# bytes a value allocates in an array pass: about forty eight-byte words
# (its value, mantissa and exponent, five digit groups and their lookups,
# nine form words, the five words of its slot and their copy, and the masks)
_VALUE_BYTES = 320


class _Tables(NamedTuple):
    """Lookup tables, built on first use."""

    digits: np.ndarray      # [g]: the digits of g < 10**4, zero-padded, or of
                            # g - 10**4 < 10, in the low half of a word
    end: np.ndarray         # [j * _QUADS + g]: for digit word j holding g, 1 + the
                            # index of its last nonzero digit, 0 for none
    form: np.ndarray        # [3 kind + word, 18 ip + s]: with ip digits before the
                            # point and s in all, the digit bytes printed before
                            # the point, those printed after it, and the point
    head: np.ndarray        # [6 (K + _K_MAX) + 3 negative + separator]: the
                            # separator (none, a comma, CRLF), the sign, and "0."
                            # and its zeros for -4 <= K < 0
    tail: np.ndarray        # [K + _K_MAX]: "e+XX[X]" for K < -4 or K >= 17
    power: np.ndarray       # [:, K + _K_MAX]: 10**(16 - K) as the rounded pair
                            # hi + lo, and hi split into halves of 26 bits


def _words(data: bytes) -> np.ndarray:
    # little-endian words: byte k of a word is bits 8k..8k+7 of its value
    return np.frombuffer(data, dtype="<u8")


@cache
def _tables() -> _Tables:
    quads = b"".join([b"%04d" % g for g in range(10**4)]
                     + [b"%d\0\0\0" % d for d in range(10)])
    chars = np.frombuffer(quads, dtype=np.uint8).reshape(-1, 4)
    place = np.zeros(_QUADS, dtype=np.uint8)
    for k in range(4):
        place[(chars[:, k] != ord("0")) & (chars[:, k] != 0)] = k + 1
    end = np.where(place > 0, 4 * np.arange(5, dtype=np.uint8)[:, None] + place, 0).ravel()

    def first(n, fill):
        # the three words whose first n bytes are fill, the rest 0
        return _words(b"".join(fill * k + b"\0" * (24 - k) for k in range(25))).reshape(
            -1, 3)[n]

    ip, s = np.arange(18)[:, None], np.arange(18)
    # below 1 every digit follows "0.", else ip of them come before the point
    before = first(np.where(ip == 0, s, ip), b"\xff")
    after = np.where((ip > 0)[..., None], first(s, b"\xff") & ~first(ip, b"\xff"), 0)
    point = np.where(((ip > 0) & (s > ip))[..., None],
                     first(ip + 1, b".") & ~first(ip, b"."), 0)
    form = np.stack([before, after, point]).reshape(3, -1, 3).transpose(0, 2, 1)
    head = b"".join((separator + b"-" * negative
                     + (b"0." + b"0" * (-1 - K) if -4 <= K < 0 else b"")).rjust(8, b"\0")
                    for K in range(-_K_MAX, _K_MAX + 1)
                    for negative in (0, 1) for separator in (b"", b",", b"\r\n"))
    tail, hi, lo = [], [], []
    for K in range(-_K_MAX, _K_MAX + 1):
        tail.append((b"e%+03d" % K if K < -4 or K >= 17 else b"").ljust(8, b"\0"))
        # 10**(16 - K) = num / den; int / int rounds correctly
        num, den = (10 ** (16 - K), 1) if K <= 16 else (1, 10 ** (K - 16))
        hi.append(num / den)
        a, b = hi[-1].as_integer_ratio()
        lo.append((num * b - a * den) / (den * b))
    hi = np.array(hi)
    tables = _Tables(np.frombuffer(quads, dtype="<u4").astype(np.uint64), end,
                     np.ascontiguousarray(form.reshape(9, -1)), _words(head),
                     _words(b"".join(tail)), np.stack([hi, np.array(lo), *_split(hi)]))
    for t in tables:
        t.flags.writeable = False
    return tables


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLIT * a
    big = c - (c - a)
    return big, a - big


def _scaled(ax: np.ndarray, K: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``ax * 10**(16 - K)`` as the nearest double ``s`` and the rest ``e``."""
    h, lo, hb, hs = _tables().power.take(K + _K_MAX, axis=1)
    p = ax * h
    ab, as_ = _split(ax)
    # Dekker's exact product: p + err == ax * h
    err = ((ab * hb - p) + ab * hs + as_ * hb) + as_ * hs
    t = err + ax * lo
    s = p + t
    return s, t - (s - p)


def _mantissas(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """17-digit mantissas ``N`` and decimal exponents ``K`` of a 1-d float
    array, ``|x| ~ N * 10**(K - 16)``, and the mask of the values left to
    ``'%.17g' % x``; ``N`` and ``K`` are 0 where ``x`` is outside the range."""
    ax = np.abs(x)
    fast = (ax >= FAST_MIN) & (ax <= FAST_MAX)
    # a value outside the range is scaled as 2.0, clear of the bounds below
    ax = np.where(fast, ax, 2.0)
    # floor(log10) may be one off near a power of ten; the loop mends it.
    # y = s + e in [1e16 - 0.025, 1e16) rounds to 1e16 at K as 10 y rounds to
    # 1e17 at K - 1, and y in [1e17, 1e17 + 0.25] carries to 1e16 at K + 1
    # either way, so a y within the error of a bound stays where it is; near
    # a bound, s - 1e16 and s - 1e17 are exact
    K = np.floor(np.log10(ax)).astype(np.int64)
    s, e = _scaled(ax, K)
    while True:
        step = ((s - 1e17) + e > 0.25).astype(np.int64) - ((s - 1e16) + e < -0.025)
        fix = step.nonzero()[0]
        if not fix.size:
            break
        K[fix] += step[fix]
        s[fix], e[fix] = _scaled(ax[fix], K[fix])
    # s is even, so rint, which rounds ties to even, rounds s + e as it rounds
    # e.  Where 10**(16 - K) is a double (-6 <= K <= 16) the product is
    # exact, and so is that rounding; elsewhere a y within TIE_BAND of a tie
    # is left to '%.17g' % x
    rounded = np.rint(e)
    slow = (np.abs(e - rounded) > 0.5 - TIE_BAND) & ((K < -6) | (K > 16))
    N = s.astype(np.int64) + rounded.astype(np.int64)
    carry = (N == 10**17).nonzero()[0]
    N[carry] = 10**16
    K[carry] += 1
    out = (~fast).nonzero()[0]
    N[out] = K[out] = 0
    slow[out] = np.isfinite(x[out]) & (x[out] != 0.0)
    return N, K, slow


def _divmod(a: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    # a // d takes a fast path for a scalar divisor that np.divmod does not
    q = a // d
    return q, a - q * d


@cache
def _separators(C: int) -> np.ndarray:
    # head table offsets of the separators of C columns: CRLF, then commas
    offsets = 6 * _K_MAX + np.array([[2]] + [[1]] * (C - 1))
    offsets.flags.writeable = False
    return offsets


def csv_passes(columns: list[np.ndarray]):
    """The rows of ``columns`` (1-d float or integer arrays of one length),
    fields separated by commas and rows ended by CRLF: a float as
    ``'%.17g' % x`` (empty if non-finite), an integer as ``'%d' % v``.  The
    bytes come one array pass at a time: each pass formats the rows that the
    byte budget fits, the last with the CRLF that ends its last row."""
    m, C = len(columns[0]), len(columns)
    step = budget.fit(_VALUE_BYTES * C)
    for a in range(0, m, step):
        rows = _rows([col[a:a + step] for col in columns], a == 0)
        yield rows + b"\r\n" if a + step >= m else rows


def _rows(columns: list[np.ndarray], first: bool) -> bytes:
    """One array pass of :func:`csv_passes`: the rows of ``columns``, each
    after a CRLF but the first row of the file (``first``), and no CRLF
    after the last."""
    tab = _tables()
    m, C = len(columns[0]), len(columns)
    values = np.array(columns, dtype=float)
    N, K, slow = (a.reshape(C, m) for a in _mantissas(values.ravel()))
    ints = [j for j, col in enumerate(columns) if col.dtype.kind in "iu"]
    slow[ints] = np.abs(values[ints]) >= INT_EXACT
    shown = np.isfinite(values)

    # digits 0-15 in four groups of four, and digit 16
    groups = np.empty((5, C, m), dtype=np.int64)
    rest, last = _divmod(N, 10)
    high, low = _divmod(rest, 10**8)
    groups[0], groups[1] = _divmod(high, 10**4)
    groups[2], groups[3] = _divmod(low, 10**4)
    groups[4] = last + 10**4
    quads = tab.digits.take(groups)
    digits = quads[::2].copy()
    digits[:2] |= quads[1::2] << 32
    # significant digits: up to the last nonzero one, at least one
    ends = tab.end.take(groups + _QUADS * np.arange(5)[:, None, None])
    s = np.maximum(np.maximum.reduce(ends), 1).astype(np.int64)
    del quads, groups, ends
    fixed = (K >= -4) & (K < 17)
    # digits before the point: none in 0.000ddd, one in d.ddde+XX; a
    # non-finite value prints none
    ip = np.where(fixed, np.maximum(K + 1, 0), 1) * shown
    before, after, point = tab.form.take(18 * ip + s * shown, axis=1).reshape(3, 3, C, m)
    after &= digits
    words = np.empty((_WORDS, C, m), dtype="<u8")
    region = words[1:4]
    np.bitwise_and(digits, before, out=region)
    region |= point
    region |= after << 8
    # the byte shifted out of a word goes to the next one
    region[1:] |= after[:-1] >> 56
    del before, after, point, digits
    # CRLF before the first column, a comma before the others
    row = 6 * K + 3 * (np.signbit(values) & shown) + _separators(C)
    if first:
        row[0, 0] -= 2
    tab.head.take(row, out=words[0])
    tab.tail.take(K + _K_MAX, out=words[4])
    slots = words.transpose(2, 1, 0).copy()
    del words

    text = slots.view(np.uint8).reshape(m, C, 8 * _WORDS)
    for j, i in zip(*slow.nonzero()):
        field = (b"%d" % columns[j][i]) if j in ints else (b"%.17g" % values[j, i])
        slots[i, j, 0] = tab.head[6 * _K_MAX + row[j, i] % 3]
        text[i, j, 8:] = 0
        text[i, j, 8:8 + len(field)] = np.frombuffer(field, dtype=np.uint8)
    flat = text.ravel()
    return flat[flat != 0].tobytes()
