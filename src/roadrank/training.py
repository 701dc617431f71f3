"""Stratified splitting, pair construction, the optimization loop, and the
finite-difference gradient check."""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .cascade import ImportanceScores
from .encoder import EmbedParams
from .graph import RoadNetwork, ValidationError
from .metrics import _f1_from_counts, confusion_counts, diff_metric, labelled_pairs
from .model import ABLATIONS, PairScorer, apply_ablation, embedding_width
# rank_from_matrix is not called here; perfbench/spans.py spans it under this module
from .ranker import RankerParams, rank_blocks, rank_from_matrix  # noqa: F401
from .walks import SampleSet


@dataclass(frozen=True)
class TrainConfig:
    """Optimization and architecture settings (defaults follow the
    reference experimental setup: lr 0.001, dropout 0.45, batch 64,
    100 epochs, 70/15/15 split, hdim 8)."""

    lr: float = 0.001
    dropout: float = 0.45
    batch: int = 64
    epochs: int = 100
    train_frac: float = 0.70
    val_frac: float = 0.15
    test_frac: float = 0.15
    strata: int = 5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    ablation: str = "full"
    x: int = 8
    hdim: int = 8
    f1: int = 32
    f2: int = 16
    rdim: int = 8

    def __post_init__(self):
        fracs = (self.train_frac, self.val_frac, self.test_frac)
        if not (min(fracs) >= 0.0 and abs(sum(fracs) - 1.0) <= 1e-9):
            raise ValidationError("split fractions must be >= 0 and sum to 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValidationError("dropout must be in [0, 1)")
        if not 0.0 <= self.lr < math.inf:
            raise ValidationError("lr must be finite and >= 0")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValidationError("beta1 and beta2 must be in [0, 1)")
        if not 0.0 < self.eps < math.inf:
            raise ValidationError("eps must be finite and > 0")
        if self.batch < 1 or self.epochs < 1 or self.strata < 1:
            raise ValidationError("batch, epochs and strata must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        if self.ablation not in ABLATIONS:
            raise ValidationError(f"unknown ablation {self.ablation!r}")
        if self.hdim % 4 != 0 or self.hdim < 4:
            raise ValidationError("hdim must be a positive multiple of 4 (hdim = 4 * dim)")

    @property
    def dim(self) -> int:
        return self.hdim // 4


@dataclass(frozen=True)
class SplitAssignment:
    """Disjoint train/val/test node sets covering all ranked nodes, plus
    each node's quantile stratum."""

    train: tuple[int, ...]
    val: tuple[int, ...]
    test: tuple[int, ...]
    stratum: dict[int, int] = field(repr=False)


def _score_array(scores) -> np.ndarray:
    if isinstance(scores, ImportanceScores):
        return scores.aff
    return np.asarray(scores, dtype=np.float64)


def stratified_split(scores, cfg: TrainConfig) -> SplitAssignment:
    """Quantile-stratified random split.

    Nodes are bucketed into ``cfg.strata`` score-quantile bins (reduced
    with a warning when bins would hold fewer than 3 nodes), then each bin
    is shuffled with the config seed and cut by the split fractions.
    """
    aff = _score_array(scores)
    n = aff.size
    if n < 3:
        raise ValidationError("need at least 3 nodes to split")
    strata = cfg.strata
    if n // strata < 3:
        strata = max(1, n // 3)
        warnings.warn(
            f"too few nodes per stratum; reducing strata from {cfg.strata} to {strata}",
            stacklevel=2,
        )
    order = sorted(range(n), key=lambda v: (aff[v], v))
    bins = np.array_split(np.array(order, dtype=np.int64), strata)
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0x5711)))
    train: list[int] = []
    val: list[int] = []
    test: list[int] = []
    stratum: dict[int, int] = {}
    for b, members in enumerate(bins):
        members = members[rng.permutation(members.size)]
        k = members.size
        n_train = int(round(cfg.train_frac * k))
        n_val = int(round(cfg.val_frac * k))
        n_val = min(n_val, k - n_train)
        train.extend(int(v) for v in members[:n_train])
        val.extend(int(v) for v in members[n_train:n_train + n_val])
        test.extend(int(v) for v in members[n_train + n_val:])
        for v in members:
            stratum[int(v)] = b
    return SplitAssignment(train=tuple(sorted(train)), val=tuple(sorted(val)),
                           test=tuple(sorted(test)), stratum=stratum)


def make_pairs(nodes, scores) -> np.ndarray:
    """All ordered pairs over the sorted ``nodes`` with ground-truth labels,
    one ``(i, j, label)`` row per pair."""
    nodes = sorted(int(v) for v in nodes)
    if len(nodes) < 2:
        raise ValidationError("need at least 2 nodes to form pairs")
    return np.column_stack(labelled_pairs(nodes, _score_array(scores)))


class Adam:
    """Adaptive-moment gradient descent over a named tensor dict; updates
    happen in place so parameter objects stay live."""

    def __init__(self, tensors: dict[str, np.ndarray], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.tensors = tensors
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in tensors.items()}
        self.v = {k: np.zeros_like(v) for k, v in tensors.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for key, g in grads.items():
            m = self.m[key]
            v = self.v[key]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            self.tensors[key] -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


@dataclass
class TrainResult:
    embed: EmbedParams | None
    ranker: RankerParams
    history: list[dict]
    best_epoch: int
    best_val_micro: float


def _evaluate_split(scorer: PairScorer, nodes, aff: np.ndarray):
    """Micro/macro F1 over all ordered pairs in a split plus the rank
    displacement of the induced ordering, in one pass over the rating blocks."""
    nodes = sorted(int(v) for v in nodes)
    s = aff[nodes]
    counts = Counter()

    def counted(blocks):
        for lo, r in blocks:
            counts.update(confusion_counts(r > 0.5, s[lo:lo + len(r), None] > s))
            yield lo, r

    order = rank_blocks(nodes, counted(scorer.rating_blocks(nodes))).order
    counts["pred0_true0"] -= len(nodes)  # the self-pairs: rated 0, labelled 0
    return *_f1_from_counts(counts), diff_metric(order, aff)


def train_model(net: RoadNetwork, samples: SampleSet | None, scores, splits: SplitAssignment,
                cfg: TrainConfig, init_embed: EmbedParams | None = None,
                init_ranker: RankerParams | None = None) -> TrainResult:
    """Mini-batch training of the embed+rank stack on train-split pairs.

    Pairs are reshuffled every epoch with a seeded generator; the final
    short batch is processed as-is.  Validation micro-F1 is evaluated each
    epoch and the best-validation checkpoint is returned, so the validation
    split must hold at least 2 nodes.  Fully deterministic given ``cfg.seed``.
    """
    if len(splits.val) < 2:
        raise ValidationError(f"the validation split holds {len(splits.val)} node(s); selecting "
                              "a checkpoint needs at least 2 (raise val_frac or lower strata)")
    aff = _score_array(scores)
    variant = apply_ablation(cfg.ablation)
    root = np.random.SeedSequence((cfg.seed, 0x7124))
    ss_embed, ss_ranker, ss_shuffle, ss_dropout = root.spawn(4)

    embed = None
    if variant.use_embedding:
        embed = init_embed if init_embed is not None else EmbedParams.init(
            net.m, cfg.x, cfg.dim, ss_embed)
    x, dim = (embed.x, embed.dim) if embed is not None else (cfg.x, cfg.dim)
    ranker = init_ranker if init_ranker is not None else RankerParams.init(
        embedding_width(variant, net.m, x, dim), cfg.f1, cfg.f2, cfg.rdim, ss_ranker)
    scorer = PairScorer(net, samples, embed, ranker, variant)

    pi, pj, py = make_pairs(splits.train, aff).T
    py = py.astype(np.float64)

    adam = Adam(scorer.tensors(), cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
    shuffle_rng = np.random.default_rng(ss_shuffle)
    dropout_rng = np.random.default_rng(ss_dropout)

    history: list[dict] = []
    best_epoch = 0
    best_micro = -np.inf
    best_embed = embed.copy() if embed is not None else None
    best_ranker = ranker.copy()
    for epoch in range(1, cfg.epochs + 1):
        perm = shuffle_rng.permutation(pi.size)
        loss_sum = 0.0
        for b, start in enumerate(range(0, pi.size, cfg.batch), start=1):
            idx = perm[start:start + cfg.batch]
            loss, grads, _ = scorer.loss_and_grads(
                pi[idx], pj[idx], py[idx],
                dropout_rate=cfg.dropout, dropout_rng=dropout_rng)
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"training diverged: non-finite loss at epoch {epoch}, batch {b}")
            adam.step(grads)
            loss_sum += loss * idx.size
        val_micro, val_macro, val_diff = _evaluate_split(scorer, splits.val, aff)
        history.append({"epoch": epoch, "train_loss": loss_sum / pi.size, "val_micro_f1": val_micro,
                        "val_macro_f1": val_macro, "val_diff": val_diff})
        if val_micro > best_micro:
            best_micro = val_micro
            best_epoch = epoch
            best_embed = embed.copy() if embed is not None else None
            best_ranker = ranker.copy()
    return TrainResult(embed=best_embed, ranker=best_ranker, history=history,
                       best_epoch=best_epoch, best_val_micro=float(best_micro))


def write_history(history: list[dict], path, cfg: TrainConfig) -> None:
    """History CSV with the protocol choices documented in its header."""
    with open(path, "w") as fh:
        fh.write(f"# strata={cfg.strata} split={cfg.train_frac}/{cfg.val_frac}/{cfg.test_frac}"
                 f" ablation={cfg.ablation} seed={cfg.seed}\n")
        fh.write("# checkpoint selection: best validation micro-F1 over all epochs\n")
        fh.write("epoch,train_loss,val_micro_f1,val_macro_f1,val_diff\n")
        for row in history:
            fh.write(f"{row['epoch']},{row['train_loss']!r},{row['val_micro_f1']!r},"
                     f"{row['val_macro_f1']!r},{row['val_diff']!r}\n")


@dataclass(frozen=True)
class GradientCheckReport:
    """Worst relative error overall and per tensor, for diagnosis."""

    worst: float
    per_tensor: dict[str, float]


def gradient_check(scorer: PairScorer, pi, pj, labels, step: float = 1e-5) -> GradientCheckReport:
    """Compare analytic gradients against central finite differences.

    Every element of every parameter tensor is perturbed by ``step`` both
    ways; errors are relative to ``max(1, |analytic|, |numeric|)`` so
    near-zero gradients are judged absolutely.
    """
    pi = np.asarray(pi, dtype=np.int64)
    pj = np.asarray(pj, dtype=np.int64)
    y = np.asarray(labels, dtype=np.float64)
    _, analytic, _ = scorer.loss_and_grads(pi, pj, y)

    def loss_only() -> float:
        loss, _, _ = scorer.loss_and_grads(pi, pj, y)
        return loss

    per_tensor: dict[str, float] = {}
    for name, tensor in scorer.tensors().items():
        worst = 0.0
        grad = analytic[name]
        # indexed in place: tensors may be strided views of packed arrays
        for k in np.ndindex(tensor.shape):
            keep = tensor[k]
            tensor[k] = keep + step
            up = loss_only()
            tensor[k] = keep - step
            down = loss_only()
            tensor[k] = keep
            numeric = (up - down) / (2.0 * step)
            err = abs(numeric - grad[k]) / max(1.0, abs(numeric), abs(grad[k]))
            if err > worst:
                worst = err
        per_tensor[name] = worst
    return GradientCheckReport(worst=max(per_tensor.values()), per_tensor=per_tensor)
