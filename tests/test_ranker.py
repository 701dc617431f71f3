import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadrank.graph import ValidationError
from roadrank.metrics import labelled_pairs
from roadrank.model import PairScorer, apply_ablation
from roadrank.ranker import RankerParams, bce_loss, pair_forward, rank_from_matrix
from roadrank.synth import synth_grid_network


def rate(hi, hj, p) -> float:
    """Rating that ``hi`` outranks ``hj``, through the batched forward pass."""
    ratings, _ = pair_forward(np.asarray(hi, dtype=float)[None],
                              np.asarray(hj, dtype=float)[None], p)
    return float(ratings[0])


def pair_label(a, b) -> int:
    """Label of the ordered pair (0, 1) when node 0 scores ``a`` and node 1
    scores ``b``."""
    pi, pj, labels = labelled_pairs([0, 1], [a, b])
    assert (pi.tolist(), pj.tolist()) == ([0, 1], [1, 0])
    return int(labels[0])


def rank_nodes(ratings):
    """Dict-based oracle for :func:`rank_from_matrix`: Copeland counts at
    the 0.5 threshold, ties broken by rating mass, then by node id.
    Returns ``(order, copeland, rating_sum, tie_groups)``."""
    nodes = sorted({i for i, _ in ratings} | {j for _, j in ratings})
    copeland = {v: 0 for v in nodes}
    rating_sum = {v: 0.0 for v in nodes}
    for i in nodes:
        for j in nodes:
            if i != j:
                rating_sum[i] += ratings[(i, j)]
                copeland[i] += int(ratings[(i, j)] > 0.5)
    order = sorted(nodes, key=lambda v: (-copeland[v], -rating_sum[v], v))
    groups = [[order[0]]]
    for v in order[1:]:
        prev = groups[-1][-1]
        if copeland[v] == copeland[prev] and rating_sum[v] == rating_sum[prev]:
            groups[-1].append(v)
        else:
            groups.append([v])
    return tuple(order), copeland, rating_sum, tuple(tuple(g) for g in groups if len(g) > 1)


def rank_dict(ratings):
    """:func:`rank_from_matrix` over a pair map, checked against the oracle."""
    nodes = sorted({i for i, _ in ratings} | {j for _, j in ratings})
    r = np.full((len(nodes), len(nodes)), 0.5)
    for (i, j), value in ratings.items():
        r[nodes.index(i), nodes.index(j)] = value
    result = rank_from_matrix(r, nodes)
    order, copeland, rating_sum, groups = rank_nodes(ratings)
    assert (result.order, result.copeland, result.tie_groups) == (order, copeland, groups)
    assert result.rating_sum == pytest.approx(rating_sum, abs=1e-12)
    return result


def test_zero_params_rate_half():
    p = RankerParams.zeros(input_dim=4)
    assert rate(np.ones(4), np.zeros(4), p) == 0.5


def test_hand_forward():
    """Tiny widths, hand-set weights, plain-float oracle."""
    p = RankerParams.zeros(input_dim=2, f1=2, f2=2, rdim=1)
    p.w1[...] = [[0.5, -1.0], [0.25, 0.75]]
    p.b1[...] = [0.1, -0.2]
    p.w2[...] = [[1.0, 0.5], [-0.5, 0.25]]
    p.b2[...] = [0.0, 0.3]
    p.w3[...] = [[0.8], [-0.4]]
    p.b3[...] = [0.05]
    p.w_out[...] = [1.5, -2.0]
    p.b_out[...] = [0.1]

    def branch(h):
        z1 = [h[0] * 0.5 + h[1] * 0.25 + 0.1, h[0] * -1.0 + h[1] * 0.75 - 0.2]
        a1 = [max(z, 0.0) for z in z1]
        z2 = [a1[0] * 1.0 + a1[1] * -0.5 + 0.0, a1[0] * 0.5 + a1[1] * 0.25 + 0.3]
        a2 = [max(z, 0.0) for z in z2]
        z3 = a2[0] * 0.8 + a2[1] * -0.4 + 0.05
        return max(z3, 0.0)

    hi = [0.6, -0.3]
    hj = [-0.1, 0.9]
    logit = 1.5 * branch(hi) - 2.0 * branch(hj) + 0.1
    expected = 1.0 / (1.0 + math.exp(-logit))
    assert rate(hi, hj, p) == pytest.approx(expected, abs=1e-14)


def test_identical_inputs_give_identical_halves():
    p = RankerParams.init(input_dim=3, seed=1)
    h = np.array([0.2, -0.5, 1.0])
    from roadrank.ranker import _branch_forward
    s, _ = _branch_forward(h[None], p)
    # the shared branch makes both halves of the pair feature equal
    r = rate(h, h, p)
    logit = float(s[0] @ p.w_out[:p.rdim] + s[0] @ p.w_out[p.rdim:] + p.b_out[0])
    assert r == pytest.approx(1.0 / (1.0 + math.exp(-logit)), abs=1e-14)


def test_antisymmetric_projection_identity():
    # with projection halves (u, -u) and zero output bias the ratings of a
    # pair and its swap are complementary
    p = RankerParams.init(input_dim=4, rdim=8, seed=3)
    u = np.random.default_rng(0).normal(size=8)
    p.w_out[:8] = u
    p.w_out[8:] = -u
    p.b_out[...] = 0.0
    hi = np.array([0.3, -0.2, 0.9, 0.0])
    hj = np.array([-0.5, 0.1, 0.4, 0.7])
    assert rate(hi, hj, p) + rate(hj, hi, p) == pytest.approx(1.0, abs=1e-12)


def test_dimension_mismatch_rejected():
    # the scorer refuses a ranker whose input width is not the embedding width
    net = synth_grid_network(2, 2, seed=0)
    with pytest.raises(ValidationError, match="does not match"):
        PairScorer(net, None, None, RankerParams.zeros(input_dim=net.m + 1),
                   apply_ablation("NoEmb"))


def test_pair_label():
    assert pair_label(3.2, 1.1) == 1
    assert pair_label(2.0, 2.0) == 0  # ties go to the <= branch
    assert pair_label(0.0, 5.0) == 0
    # every ordered pair in row-major order, labelled by the first node's score
    pi, pj, labels = labelled_pairs([4, 1, 6], np.array([0, 2.0, 0, 0, 1.0, 0, 3.0]))
    assert list(zip(pi.tolist(), pj.tolist(), labels.tolist())) == [
        (4, 1, 0), (4, 6, 0), (1, 4, 1), (1, 6, 0), (6, 4, 1), (6, 1, 1)]


@given(st.floats(allow_nan=False, allow_infinity=False, width=32),
       st.floats(allow_nan=False, allow_infinity=False, width=32))
@settings(max_examples=100, deadline=None)
def test_pair_label_antisymmetry(a, b):
    if a != b:
        assert pair_label(a, b) + pair_label(b, a) == 1
    else:
        assert pair_label(a, b) == 0 and pair_label(b, a) == 0


def test_bce_hand_values():
    assert bce_loss([0.5], [1]) == pytest.approx(math.log(2), abs=1e-12)
    assert bce_loss([0.9, 0.1], [1, 0]) == pytest.approx(-math.log(0.9), abs=1e-12)


def test_bce_limits_and_bounds():
    # approaching the labels drives the loss monotonically to zero
    losses = [bce_loss([r, 1 - r], [1, 0]) for r in (0.6, 0.9, 0.99, 0.999999)]
    assert all(a > b for a, b in zip(losses, losses[1:]))
    assert losses[-1] >= 0.0
    # clamping keeps exact 0/1 ratings finite
    assert math.isfinite(bce_loss([1.0, 0.0], [0, 1]))
    with pytest.raises(ValidationError):
        bce_loss([], [])


def test_rank_consistent_tournament():
    ratings = {(0, 1): 0.9, (1, 0): 0.1,
               (1, 2): 0.8, (2, 1): 0.2,
               (0, 2): 0.7, (2, 0): 0.3}
    result = rank_dict(ratings)
    assert result.order == (0, 1, 2)
    assert result.tie_groups == ()


def test_rank_all_ties():
    ratings = {(i, j): 0.5 for i in range(3) for j in range(3) if i != j}
    result = rank_dict(ratings)
    assert result.order == (0, 1, 2)  # id order inside the tie
    assert result.tie_groups == ((0, 1, 2),)


def test_rank_rock_paper_scissors():
    # 0 beats 1, 1 beats 2, 2 beats 0: every Copeland count is 1, so the
    # rating sums decide (hand sums: 1.125 for 0, 0.875 for 1, 1.0 for 2);
    # dyadic values keep the float sums exact
    ratings = {(0, 1): 0.875, (1, 0): 0.125,
               (1, 2): 0.75, (2, 1): 0.25,
               (2, 0): 0.75, (0, 2): 0.25}
    result = rank_dict(ratings)
    assert all(result.copeland[v] == 1 for v in (0, 1, 2))
    assert result.rating_sum == {0: 1.125, 1: 0.875, 2: 1.0}
    assert result.order == (0, 2, 1)
    assert result.tie_groups == ()


def test_rank_missing_pair_rejected():
    # a rating matrix that does not cover every ordered pair of the nodes
    with pytest.raises(ValidationError, match="does not match 3 nodes"):
        rank_from_matrix(np.full((2, 3), 0.5), [0, 1, 2])


def test_rank_is_permutation_and_total_order():
    rng = np.random.default_rng(12)
    for _ in range(20):
        z = int(rng.integers(2, 9))
        r = rng.uniform(0.01, 0.99, size=(z, z))
        nodes = sorted(rng.choice(100, size=z, replace=False).tolist())
        result = rank_from_matrix(r, nodes)
        assert sorted(result.order) == nodes
        # a transitively consistent tournament reproduces its source order
        strength = rng.permutation(z)
        consistent = np.where(strength[:, None] > strength[None, :], 0.9, 0.1)
        res2 = rank_from_matrix(consistent, nodes)
        expected = [nodes[i] for i in np.argsort(-strength, kind="stable")]
        assert list(res2.order) == expected


def test_rank_matrix_matches_dict():
    rng = np.random.default_rng(7)
    z = 5
    r = rng.uniform(0.01, 0.99, size=(z, z))
    nodes = [3, 5, 8, 9, 11]
    as_dict = {(nodes[a], nodes[b]): float(r[a, b])
               for a in range(z) for b in range(z) if a != b}
    assert rank_nodes(as_dict)[0] == rank_from_matrix(r, nodes).order
    # tied Copeland counts across many random tournaments
    for _ in range(50):
        z = int(rng.integers(2, 7))
        r = rng.choice([0.25, 0.5, 0.75], size=(z, z))
        rank_dict({(a, b): float(r[a, b]) for a in range(z) for b in range(z) if a != b})
