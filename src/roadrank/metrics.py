"""Evaluation metrics: pairwise micro/macro F1 and the normalized rank
displacement between a ranking and the ground-truth descending order."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import ValidationError


@dataclass(frozen=True)
class MetricReport:
    """F1 scores, optional rank displacement, and the confusion counts the
    F1 values were pooled from."""

    micro_f1: float
    macro_f1: float
    diff: float | None
    pairs: int
    confusion: dict[str, int]

    def lines(self) -> list[str]:
        out = [
            f"pairs {self.pairs}",
            f"micro_f1 {self.micro_f1!r}",
            f"macro_f1 {self.macro_f1!r}",
        ]
        if self.diff is not None:
            out.append(f"diff {self.diff!r}")
        for key in sorted(self.confusion):
            out.append(f"{key} {self.confusion[key]}")
        return out


def _class_f1(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 2.0 * tp / denom if denom else 0.0


def confusion_counts(predicted, truth) -> dict[str, int]:
    pred = np.asarray(predicted, dtype=np.int64)
    true = np.asarray(truth, dtype=np.int64)
    if pred.size == 0 or pred.shape != true.shape:
        raise ValidationError("predictions and truth must be equal-length and non-empty")
    if not (np.isin(pred, (0, 1)).all() and np.isin(true, (0, 1)).all()):
        raise ValidationError("labels must be binary 0/1")
    return {
        "pred1_true1": int(((pred == 1) & (true == 1)).sum()),
        "pred1_true0": int(((pred == 1) & (true == 0)).sum()),
        "pred0_true1": int(((pred == 0) & (true == 1)).sum()),
        "pred0_true0": int(((pred == 0) & (true == 0)).sum()),
    }


def _f1_from_counts(c: dict[str, int]) -> tuple[float, float]:
    tp1, fp1, fn1 = c["pred1_true1"], c["pred1_true0"], c["pred0_true1"]
    tp0, fp0, fn0 = c["pred0_true0"], c["pred0_true1"], c["pred1_true0"]
    micro = _class_f1(tp1 + tp0, fp1 + fp0, fn1 + fn0)
    macro = 0.5 * (_class_f1(tp1, fp1, fn1) + _class_f1(tp0, fp0, fn0))
    return micro, macro


def micro_macro_f1(predicted, truth) -> tuple[float, float]:
    """F1 over both binary classes.

    Micro pools true/false positives across classes (for single-label
    binary data this equals accuracy); macro is the unweighted mean of the
    per-class F1 values, where a class absent from both predictions and
    truth contributes 0.
    """
    return _f1_from_counts(confusion_counts(predicted, truth))


def descending_order(nodes, scores: np.ndarray) -> list[int]:
    """Nodes sorted by score descending, ties broken by ascending id."""
    return sorted(nodes, key=lambda v: (-scores[v], v))


def diff_metric(ranking, scores) -> float:
    """Normalized total displacement of a ranking from the ground-truth
    descending order.

    Positions are 1-based; the normalizer ``floor(n^2 / 2)`` makes a full
    reversal score 1.0 for even n.  Ties in the ground truth order break
    by ascending node id so the metric is reproducible.
    """
    ranking = [int(v) for v in ranking]
    if not ranking:
        raise ValidationError("ranking must be non-empty")
    if len(set(ranking)) != len(ranking):
        raise ValidationError("ranking contains duplicate nodes")
    scores = np.asarray(scores, dtype=np.float64)
    for v in ranking:
        if not 0 <= v < scores.size:
            raise ValidationError(f"node {v} has no ground-truth score")
    n = len(ranking)
    if n == 1:
        return 0.0
    truth = descending_order(ranking, scores)
    pos_truth = {v: idx + 1 for idx, v in enumerate(truth)}
    total = sum(abs((idx + 1) - pos_truth[v]) for idx, v in enumerate(ranking))
    return total / (n * n // 2)


def labelled_pairs(nodes, scores) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All ordered pairs ``(i, j)``, ``i != j``, over ``nodes`` in row-major
    order, labelled 1 iff the first node's score is strictly larger (the
    shared protocol for learned rankers and score-based baselines alike).

    Returns ``(pi, pj, labels)``, three int64 arrays of length z*(z-1).
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    s = np.asarray(scores, dtype=np.float64)[nodes]
    off = nodes[:, None] != nodes[None, :]
    a, b = np.nonzero(off)
    return nodes[a], nodes[b], (s[:, None] > s[None, :])[off].astype(np.int64)


def report_for_ranking(ranking, scores, pair_nodes=None) -> MetricReport:
    """Score a ranking against ground truth.

    Pairwise predictions are derived from list positions (earlier means
    more important); F1 is computed over all ordered pairs within
    ``pair_nodes`` (default: every ranked node), diff over the full
    ranking list.
    """
    ranking = np.asarray([int(v) for v in ranking], dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    diff = diff_metric(ranking, scores)
    nodes = ranking if pair_nodes is None else np.asarray(
        [int(v) for v in pair_nodes], dtype=np.int64)
    position = np.full(scores.size, -1, dtype=np.int64)
    position[ranking] = np.arange(ranking.size)
    absent = [int(v) for v in nodes if not 0 <= v < scores.size or position[v] < 0]
    if absent:
        raise ValidationError(f"node {absent[0]} missing from the ranking")
    pi, pj, truth = labelled_pairs(nodes, scores)
    confusion = confusion_counts(position[pi] < position[pj], truth)
    micro, macro = _f1_from_counts(confusion)
    return MetricReport(micro_f1=micro, macro_f1=macro, diff=diff,
                        pairs=pi.size, confusion=confusion)
