"""The text ``repr`` gives each float64 of an array, as rows of ASCII bytes.

``repr`` prints the shortest decimal that reads back as the same double
and, of those, the closest, ties to even (David Gay's ``dtoa`` in mode 0,
bignum arithmetic once per value).  For values in [1e-4, 1), where ``repr``
prints ``0.`` and fraction digits, :func:`repr_rows` finds the same digits
for a whole array at once, by the selection of Schubfach (R. Giulietti,
"The Schubfach way to render doubles", 2020):

- a double ``v = c * 2**q`` (``2**52 <= c < 2**53``; here ``-66 <= q <=
  -53``) reads back from every decimal less than half its spacing ``2**q``
  away;
- scaled by ``10**K``, ``K = -floor(log10(2**q))``, that interval holds at
  least one and fewer than ten integers.  The shortest digits are its one
  multiple of ten when it holds one.  Otherwise Schubfach takes whichever
  of ``floor(v * 10**K)`` and the next integer lies in it, the closer one
  to ``v * 10**K`` when both do, and the even one at a tie.  As the
  half-width here exceeds 1/2 in those units, that is ``v * 10**K``
  rounded to the nearest integer, ties to even.

Two of Schubfach's cases never arise in this range.  No end of an interval
is a decimal of ``K`` places, so whether an end reads back (it does when
``c`` is even) never matters.  The 13 powers of two, whose interval is
half as wide below ``v``, print the same digits from the symmetric
interval; the tests check all 13.  For these ``q``, ``16 <= K <= 20``: the scale ``10**K`` is an
integer, so Schubfach's 126-bit constants for 10^16..10^20 are exact, and
so is each product here.  ``v * 10**K`` is ``c * 5**K`` (up to 100 bits,
formed from 32-bit limbs in ``uint64`` arrays) over a power of two, and the
half-width in units of ``10**-K`` is an exact 64.64-bit fixed-point number.
Every other value (0.0, 1.0 and above, values below 1e-4, which ``repr``
prints with an exponent, negatives, subnormals, inf and nan) goes through
``repr``, one at a time.
"""

from __future__ import annotations

import numpy as np

from .graph import ascii_rows

_U = np.uint64  # every operand is uint64: numpy < 2 turns uint64 mixed with int64 into float64
_M32 = _U(2 ** 32 - 1)
_Q_MIN, _Q_MAX = -66, -53  # the exponents q of [2**-14, 1), which holds [1e-4, 1)


def _constants(q: int) -> tuple[int, ...]:
    """For ``v = c * 2**q``: ``K``, ``5**K``, the shift ``s`` with
    ``v * 10**K == c * 5**K / 2**s``, and the half-width ``2**(q - 1)``
    times ``10**K``, as integer part and 64-bit fraction."""
    k = 0  # the least with 2**q * 10**k >= 1
    while 10 ** k < 2 ** -q:
        k += 1
    s = -q - k
    return k, 5 ** k, s, *divmod((5 ** k << 64) >> (s + 1), 2 ** 64)


# one row per q: K, 5**K, s, half-width integer part and fraction
_TABLE = np.array([_constants(q) for q in range(_Q_MIN, _Q_MAX + 1)], dtype=_U).T


def _mul(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64 bits of ``a * b``, from 32-bit limbs."""
    a0, a1, b0, b1 = a & _M32, a >> _U(32), b & _M32, b >> _U(32)
    low = a0 * b0
    mid = a1 * b0 + (low >> _U(32))
    mid2 = a0 * b1 + (mid & _M32)
    return a1 * b1 + (mid >> _U(32)) + (mid2 >> _U(32)), (mid2 << _U(32)) | (low & _M32)


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(n, K)``: the digits ``repr`` prints for the doubles of ``bits``
    (uint64 bit patterns, each in [2**-14, 1)) are those of ``n / 10**K``."""
    c = (bits & _U(2 ** 52 - 1)) | _U(2 ** 52)
    row = (bits >> _U(52)).astype(np.intp) - (1075 + _Q_MIN)
    k, pow5, s, half_int, half_frac = _TABLE.take(row, axis=1)
    hi, lo = _mul(c, pow5)
    n = (hi << (_U(64) - s)) | (lo >> s)  # v * 10**K is n + frac / 2**64
    frac = lo << (_U(64) - s)
    # the least and greatest integers in the interval, whose ends are
    # never integers: (2c +- 1) * 5**K is odd and s >= 37
    first = n - half_int - (frac < half_frac) + _U(1)
    last = n + half_int + (frac + half_frac < frac)
    tens = (first + _U(9)) // _U(10) * _U(10)
    half = _U(2 ** 63)
    up = (frac > half) | ((frac == half) & (n & _U(1)).astype(bool))
    return np.where(tens <= last, tens, n + up), k


# 4-digit groups as uint32 words: _GROUP[g] is g zero-padded, and
# _GROUP[10_000 + g] the same with trailing zeros NUL (all NUL for 0);
# _LEAD[10 * (K - 16) + d] is "0." and the first K - 16 of K fraction
# digits, d their last, NUL-padded to 8 bytes
_DIGITS = (np.arange(10_000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10
           + ord("0")).astype(np.uint8)
_GROUP = np.concatenate([_DIGITS, np.where(np.logical_and.accumulate(
    _DIGITS[:, ::-1] == ord("0"), axis=1)[:, ::-1], 0, _DIGITS)]).view(np.uint32).ravel()
_LEAD = ascii_rows([("0." + f"{d:04d}"[20 - k:]).ljust(8, "\0")
                    for k in range(16, 21) for d in range(10)]).view(np.uint64).ravel()
_WIDTH = 24  # 8 lead bytes and 4 groups; also the longest repr, "-2.2250738585072014e-308"


def _fraction_rows(n: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``0.`` and the fraction ``n / 10**k`` without trailing zeros, as
    uint8 rows of ``_WIDTH`` bytes, NUL where the text leaves bytes out."""
    rows = np.empty((n.size, _WIDTH // 4), np.uint32)
    head = n // _U(10 ** 8)
    tail = (n - head * _U(10 ** 8)).astype(np.uint32)
    head = head.astype(np.uint32)
    lead = head // np.uint32(10 ** 8)
    rows[:, :2] = _LEAD[10 * (k.astype(np.intp) - 16) + lead].view(np.uint32).reshape(-1, 2)
    low = tail // np.uint32(10 ** 4)
    high = head // np.uint32(10 ** 4)
    seen = np.zeros(n.size, bool)  # a nonzero group lies to the right
    for col, group in ((5, tail - low * np.uint32(10 ** 4)), (4, low),
                       (3, head - high * np.uint32(10 ** 4)), (2, high - lead * np.uint32(10 ** 4))):
        rows[:, col] = _GROUP[np.where(seen, group, group + np.uint32(10_000))]
        seen |= group != 0
    return rows.view(np.uint8)


def repr_rows(x: np.ndarray) -> np.ndarray:
    """``repr(float(v))`` for each ``v`` of 1-D float64 array ``x``: row
    ``i`` of the ``(len(x), 24)`` uint8 array returned holds that text's
    ASCII bytes in order, and NUL bytes between and after them."""
    x = np.asarray(x, dtype=np.float64)
    fast = (x >= 1e-4) & (x < 1.0)
    rows = _fraction_rows(*_shortest(np.where(fast, x, 0.5).view(_U)))
    slow = np.flatnonzero(~fast)
    if slow.size:
        other = ascii_rows([repr(v) for v in x[slow].tolist()])
        rows[slow] = 0
        rows[slow, :other.shape[1]] = other
    return rows
