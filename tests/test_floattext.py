"""``floattext.repr_rows`` against ``repr``: random bit patterns of its
shortest-digit range [1e-4, 1), ulp sweeps around the range's powers of two
and ten, exact ties, and every class of value that ``repr`` itself formats.

Run as a script for the dense sweep::

    python tests/test_floattext.py 10000000 50000

checks 10**7 random bit patterns and +-50,000 ulps around each boundary."""

import sys
from itertools import count

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from roadrank.floattext import repr_rows

LOW, HIGH = (int(b) for b in np.array([1e-4, 1.0]).view(np.uint64))  # bits of [1e-4, 1)
# the powers of two and ten in and at the ends of [1e-4, 1); each power of
# two has significand 2**52, so the gap below it is half the gap above
BOUNDARIES = [2.0 ** -e for e in range(15)] + [10.0 ** -j for j in range(1, 5)]
# every class repr formats itself, with the widest texts a float64 has
OTHERS = [0.0, -0.0, 1.0, 1e-05, 9.999999999999999e-05, 5e-324, 2.2250738585072014e-308,
          -2.2250738585072014e-308, -1.7976931348623157e+308, -0.5, 123.456, 1e16,
          float("nan"), float("inf"), float("-inf")]


def mismatches(x: np.ndarray) -> list[tuple[str, str]]:
    """``(repr, text)`` for each value of ``x`` whose two texts differ."""
    want = "".join(f"{v!r}\n" for v in x.tolist())
    rows = repr_rows(x)
    lines = np.concatenate([rows, np.full((x.size, 1), ord("\n"), np.uint8)], axis=1)
    got = lines.tobytes().translate(None, b"\0").decode("ascii")
    if got == want:
        return []
    return [(w, g) for w, g in zip(want.split("\n"), got.split("\n")) if w != g] or [(want, got)]


def around(boundaries, ulps: int) -> np.ndarray:
    """Every double within ``ulps`` steps of each of ``boundaries``."""
    bits = np.array(boundaries).view(np.int64)
    return (bits[:, None] + np.arange(-ulps, ulps + 1)).ravel().view(np.float64)


def ties(per_binade: int) -> np.ndarray:
    """Doubles ``v`` with ``v * 10**K`` exactly halfway between two
    integers, up to ``per_binade`` in each binade [2**e, 2**(e + 1)) of the
    range: ``m / 2**(K + 1)`` with ``m`` odd, where ``10**-K`` is the
    greatest power of ten not above the binade's spacing ``2**(e - 52)``."""
    out = []
    for e in range(-14, 0):
        k = next(k for k in count() if 10 ** k >= 2 ** (52 - e))
        first = 2 ** (e + k + 1)
        out.append(np.arange(first + 1, min(2 * first, first + 2 * per_binade), 2) / 2.0 ** (k + 1))
    return np.concatenate(out)


def sweep(randoms: int, ulps: int, seed: int = 0, chunk: int = 1_000_000) -> None:
    rng = np.random.default_rng(seed)
    for lo in range(0, randoms, chunk):
        bits = rng.integers(LOW, HIGH, size=min(chunk, randoms - lo), dtype=np.uint64)
        assert mismatches(bits.view(np.float64)) == []
    for b in BOUNDARIES:
        assert mismatches(around([b], ulps)) == [], b


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(LOW, HIGH - 1), min_size=1, max_size=64))
def test_random_bit_patterns_of_the_range(bits):
    assert mismatches(np.array(bits, dtype=np.uint64).view(np.float64)) == []


def test_dense_sweep_sample():
    sweep(200_000, 2_000)


def test_exact_ties_take_the_even_digit():
    x = ties(2_000)
    assert x.size > 10_000
    assert mismatches(x) == []


def test_values_repr_formats_itself():
    x = np.array(OTHERS)
    assert mismatches(x) == []
    assert max(map(len, map(repr, OTHERS))) == repr_rows(x).shape[1] == 24


def test_mixed_values_keep_their_order():
    rng = np.random.default_rng(3)
    fast = rng.integers(LOW, HIGH, size=500, dtype=np.uint64).view(np.float64)
    x = np.concatenate([fast, np.tile(OTHERS, 20)])[rng.permutation(500 + 20 * len(OTHERS))]
    assert mismatches(x) == []


def test_no_values():
    assert repr_rows(np.array([])).shape == (0, 24)


if __name__ == "__main__":
    sweep(int(sys.argv[1]), int(sys.argv[2]))
    print(f"repr_rows equals repr on {sys.argv[1]} random values and +-{sys.argv[2]} ulps "
          f"around {len(BOUNDARIES)} boundaries")
