import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadrank.alias import AliasTable, alias_draw, build_alias, reconstruct
from roadrank.graph import ValidationError


def test_uniform_pair():
    t = build_alias([0.5, 0.5])
    npt.assert_array_equal(t.prob, [1.0, 1.0])


def test_singleton():
    t = build_alias([1.0])
    npt.assert_array_equal(t.prob, [1.0])
    rng = np.random.default_rng(0)
    assert all(alias_draw(t, rng) == 0 for _ in range(20))


def test_reconstruction_exact():
    p = np.array([0.2, 0.3, 0.5])
    t = build_alias(p)
    npt.assert_allclose(reconstruct(t), p, atol=1e-12)


@given(st.lists(st.floats(min_value=1e-9, max_value=1.0), min_size=1, max_size=64),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_reconstruction_random(weights, _seed):
    p = np.array(weights)
    p = p / p.sum()
    p = p / p.sum()  # force the sum within the builder's tolerance
    t = build_alias(p)
    npt.assert_allclose(reconstruct(t), p, atol=1e-12)


def test_draw_frequencies():
    p = np.array([0.2, 0.3, 0.5])
    t = build_alias(p)
    rng = np.random.default_rng(123)
    counts = np.zeros(3)
    n = 100_000
    for _ in range(n):
        counts[alias_draw(t, rng)] += 1
    npt.assert_allclose(counts / n, p, atol=0.01)


def test_stacked_draw_frequencies():
    """A stack of tables draws row ``r`` from table ``r``; a zero-mass
    outcome is never drawn."""
    p = np.array([[0.2, 0.3, 0.5], [0.7, 0.0, 0.3]])
    first, second = build_alias(p[0]), build_alias(p[1])
    rows = np.arange(200_000) % 2
    stack = AliasTable(prob=np.stack([first.prob, second.prob])[rows],
                       alias=np.stack([first.alias, second.alias])[rows])
    got = alias_draw(stack, np.random.default_rng(5))
    assert got.shape == rows.shape
    for r in (0, 1):
        npt.assert_allclose(np.bincount(got[rows == r], minlength=3) / 100_000, p[r],
                            atol=0.01)
    assert not (got[rows == 1] == 1).any()


def test_draw_determinism():
    t = build_alias([0.1, 0.6, 0.3])
    seq1 = [alias_draw(t, np.random.default_rng(7)) for _ in range(1)]
    a = np.random.default_rng(7)
    b = np.random.default_rng(7)
    assert [alias_draw(t, a) for _ in range(50)] == [alias_draw(t, b) for _ in range(50)]


@pytest.mark.parametrize("bad", [[0.5, -0.1, 0.6], [0.2, 0.2], [np.nan, 0.5],
                                 [0.5, 0.5, np.nan], [np.inf, 0.0], [1.0, np.inf, -np.inf]])
def test_bad_inputs_rejected(bad):
    with pytest.raises(ValidationError):
        build_alias(bad)


def vose_numpy(p):
    """Reference Vose construction indexing numpy arrays element by
    element; ``build_alias`` must give exactly its tables."""
    p = np.asarray(p, dtype=np.float64)
    n = p.size
    prob = np.ones(n, dtype=np.float64)
    alias = np.arange(n, dtype=np.int64)
    scaled = p * n
    small = [i for i in range(n) if scaled[i] < 1.0]
    large = [i for i in range(n) if scaled[i] >= 1.0]
    while small and large:
        s = small.pop()
        g = large.pop()
        prob[s] = scaled[s]
        alias[s] = g
        scaled[g] = (scaled[g] + scaled[s]) - 1.0
        if scaled[g] < 1.0:
            small.append(g)
        else:
            large.append(g)
    for q in (small, large):
        for g in q:
            prob[g] = 1.0
            alias[g] = g
    return prob, alias


_weights = st.lists(st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=1.0)),
                    min_size=1, max_size=64).filter(any)
_uniform = st.integers(min_value=1, max_value=64).map(lambda n: [1.0] * n)


@given(st.one_of(_weights, _uniform))
@settings(max_examples=200, deadline=None)
def test_build_alias_matches_numpy_vose(weights):
    p = np.array(weights)
    p = p / p.sum()
    p = p / p.sum()
    prob, alias = vose_numpy(p)
    t = build_alias(p)
    npt.assert_array_equal(t.prob, prob)
    npt.assert_array_equal(t.alias, alias)
    assert t.prob.dtype == np.float64 and t.alias.dtype == np.int64


@pytest.mark.parametrize("m", [1, 2, 5, 8, 9, 33])
def test_stacked_build_alias_matches_numpy_vose(m):
    """A ``(rows, m)`` stack gives, row by row, exactly the reference
    tables: rows with zero entries, skewed rows and uniform rows."""
    rng = np.random.default_rng(m)
    p = rng.random((300, m)) ** rng.uniform(0.1, 8.0, size=(300, 1))
    p[rng.random(p.shape) < 0.3] = 0.0
    p[~p.any(axis=1), -1] = 1.0
    p[:20] = 1.0
    p /= p.sum(axis=1, keepdims=True)
    t = build_alias(p)
    assert t.prob.shape == t.alias.shape == p.shape
    assert t.prob.dtype == np.float64 and t.alias.dtype == np.int64
    for r, row in enumerate(p):
        prob, alias = vose_numpy(row)
        assert t.prob[r].tobytes() == prob.tobytes(), r
        npt.assert_array_equal(t.alias[r], alias)


@pytest.mark.parametrize("bad,message", [
    ([0.5, -0.1, 0.6], "alias input row 2 has negative entry at 1"),
    ([0.2, 0.2, 0.2], "alias input row 2 sums to"),
    ([np.nan, 0.5, 0.5], "alias input row 2 sums to"),
    ([np.inf, 0.0, 0.0], "alias input row 2 sums to"),
])
def test_stacked_bad_row_is_named(bad, message):
    p = np.full((4, 3), 1 / 3)
    p[2] = bad
    with pytest.raises(ValidationError, match=message):
        build_alias(p)
