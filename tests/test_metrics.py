import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadrank.graph import ValidationError
from roadrank.metrics import (confusion_counts, descending_order, diff_metric,
                              labelled_pairs, micro_macro_f1, report_for_ranking)


def test_f1_all_correct():
    assert micro_macro_f1([1, 0, 1], [1, 0, 1]) == (1.0, 1.0)


def test_f1_hand_confusion():
    micro, macro = micro_macro_f1([1, 0, 1, 1], [1, 0, 0, 1])
    assert micro == pytest.approx(0.75)
    # class 1: tp=2 fp=1 fn=0 -> f1 = 0.8; class 0: tp=1 fp=0 fn=1 -> 2/3
    assert macro == pytest.approx((0.8 + 2 / 3) / 2)


def test_f1_all_wrong():
    assert micro_macro_f1([1, 1, 0], [0, 0, 1]) == (0.0, 0.0)


def test_f1_absent_class_contributes_zero():
    micro, macro = micro_macro_f1([1, 1], [1, 1])
    assert micro == 1.0
    assert macro == 0.5  # class 0 appears nowhere, scores 0


def test_micro_equals_accuracy_random():
    rng = np.random.default_rng(6)
    for _ in range(100):
        k = int(rng.integers(1, 40))
        pred = rng.integers(0, 2, size=k)
        true = rng.integers(0, 2, size=k)
        micro, _ = micro_macro_f1(pred, true)
        assert micro == pytest.approx((pred == true).mean(), abs=1e-12)


def test_f1_input_validation():
    with pytest.raises(ValidationError):
        micro_macro_f1([], [])
    with pytest.raises(ValidationError):
        micro_macro_f1([0, 2], [0, 1])


def test_confusion_counts():
    c = confusion_counts([1, 0, 1, 1], [1, 0, 0, 1])
    assert c == {"pred1_true1": 2, "pred1_true0": 1, "pred0_true1": 0, "pred0_true0": 1}


def test_diff_sorted_is_zero():
    scores = np.array([9.0, 7.0, 5.0, 1.0])
    assert diff_metric([0, 1, 2, 3], scores) == 0.0


def test_diff_full_reversal_is_one():
    scores = np.array([9.0, 7.0, 5.0, 1.0])
    # displacements 3+1+1+3 = 8 over floor(16/2)
    assert diff_metric([3, 2, 1, 0], scores) == pytest.approx(1.0)


def test_diff_adjacent_swap():
    scores = np.array([9.0, 7.0, 5.0, 1.0])
    assert diff_metric([1, 0, 2, 3], scores) == pytest.approx(0.25)


def test_diff_tie_break_by_node_id():
    scores = np.array([5.0, 5.0, 1.0])
    # ground-truth order under the tie rule is (0, 1, 2)
    assert diff_metric([0, 1, 2], scores) == 0.0
    assert diff_metric([1, 0, 2], scores) == pytest.approx(2 / 4)


def test_diff_requires_scores():
    with pytest.raises(ValidationError, match="score"):
        diff_metric([0, 5], np.array([1.0, 2.0]))


@given(st.permutations(list(range(6))))
@settings(max_examples=60, deadline=None)
def test_diff_bounds(perm):
    scores = np.array([6.0, 5.0, 4.0, 3.0, 2.0, 1.0])
    d = diff_metric(list(perm), scores)
    assert 0.0 <= d <= 1.0
    if list(perm) == [0, 1, 2, 3, 4, 5]:
        assert d == 0.0


def test_descending_order():
    assert descending_order([2, 0, 1], np.array([3.0, 9.0, 3.0])) == [1, 0, 2]


def test_report_for_ranking_perfect():
    scores = np.array([4.0, 3.0, 2.0, 1.0])
    report = report_for_ranking([0, 1, 2, 3], scores)
    assert report.micro_f1 == 1.0
    assert report.diff == 0.0
    assert report.pairs == 12


def test_report_restricted_pairs():
    scores = np.array([4.0, 3.0, 2.0, 1.0])
    report = report_for_ranking([3, 2, 1, 0], scores, pair_nodes=[0, 1])
    assert report.pairs == 2
    assert report.micro_f1 == 0.0
    lines = report.lines()
    assert any(line.startswith("micro_f1") for line in lines)


def test_report_matches_plain_pair_loop():
    """Oracle: every ordered pair of distinct ids, one at a time."""
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(2, 12))
        scores = rng.integers(0, 4, size=n).astype(float)  # plenty of ties
        ranking = rng.permutation(n).tolist()
        pair_nodes = rng.choice(ranking, size=int(rng.integers(2, n + 3))).tolist()
        for nodes in (ranking, pair_nodes):
            pairs = [(i, j) for i in nodes for j in nodes if i != j]
            truth = [int(scores[i] > scores[j]) for i, j in pairs]
            predicted = [int(ranking.index(i) < ranking.index(j)) for i, j in pairs]
            pi, pj, labels = labelled_pairs(nodes, scores)
            assert list(zip(pi.tolist(), pj.tolist())) == pairs
            assert labels.tolist() == truth
            if not pairs:
                continue
            report = report_for_ranking(ranking, scores,
                                        None if nodes is ranking else nodes)
            assert report.pairs == len(pairs)
            assert report.confusion == confusion_counts(predicted, truth)
            assert (report.micro_f1, report.macro_f1) == micro_macro_f1(predicted, truth)


def test_report_rejects_unranked_pair_node():
    with pytest.raises(ValidationError, match="node 5 missing"):
        report_for_ranking([0, 1, 2], np.ones(6), pair_nodes=[0, 5])
    with pytest.raises(ValidationError, match="node 9 missing"):
        report_for_ranking([0, 1, 2], np.ones(6), pair_nodes=[0, 9])
