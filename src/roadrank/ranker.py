"""Pairwise scoring head and rating aggregation.

Two weight-shared branches of three rectified fully connected layers map a
pair of node embeddings to branch codes; the concatenated codes pass
through a final linear projection and a sigmoid to give the rating that
the first node outranks the second.  Ratings over all ordered pairs are
totalized into a descending node list by Copeland counts.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .encoder import uniform_init
from .graph import ValidationError

EPS = 1e-12


@dataclass
class RankerParams:
    """Shared-branch weights (three FC layers input->f1->f2->rdim) plus the
    final projection (2*rdim,) -> scalar.  Both branches reference this one
    parameter set; sharing is structural, not copied."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray

    @property
    def input_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def rdim(self) -> int:
        return self.w3.shape[1]

    @classmethod
    def init(cls, input_dim: int, f1: int = 32, f2: int = 16, rdim: int = 8,
             seed=None) -> "RankerParams":
        if min(input_dim, f1, f2, rdim) < 1:
            raise ValidationError("ranker layer widths must be >= 1")
        rng = np.random.default_rng(seed)
        p = cls.zeros(input_dim, f1, f2, rdim)
        tensors = list(p.tensors().values())
        # (weight, bias) layers in field order, both drawn with the weight's fan-in
        for w, b in zip(tensors[::2], tensors[1::2]):
            w[...] = uniform_init(rng, w.shape, w.shape[0])
            b[...] = uniform_init(rng, b.shape, w.shape[0])
        return p

    @classmethod
    def zeros(cls, input_dim: int, f1: int = 32, f2: int = 16, rdim: int = 8) -> "RankerParams":
        return cls(
            w1=np.zeros((input_dim, f1)),
            b1=np.zeros(f1),
            w2=np.zeros((f1, f2)),
            b2=np.zeros(f2),
            w3=np.zeros((f2, rdim)),
            b3=np.zeros(rdim),
            w_out=np.zeros(2 * rdim),
            b_out=np.zeros(1),
        )

    def tensors(self) -> dict[str, np.ndarray]:
        return dict(vars(self))  # every field is a tensor

    def copy(self) -> "RankerParams":
        return copy.deepcopy(self)


def _branch_forward(h: np.ndarray, p: RankerParams):
    z1 = h @ p.w1 + p.b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ p.w2 + p.b2
    a2 = np.maximum(z2, 0.0)
    z3 = a2 @ p.w3 + p.b3
    s = np.maximum(z3, 0.0)
    return s, (h, z1, a1, z2, a2, z3)


def _branch_backward(ds: np.ndarray, cache, p: RankerParams,
                     grads: RankerParams) -> np.ndarray:
    h, z1, a1, z2, a2, z3 = cache
    dz3 = ds * (z3 > 0)
    grads.w3 += a2.T @ dz3
    grads.b3 += dz3.sum(axis=0)
    dz2 = (dz3 @ p.w3.T) * (z2 > 0)
    grads.w2 += a1.T @ dz2
    grads.b2 += dz2.sum(axis=0)
    dz1 = (dz2 @ p.w2.T) * (z1 > 0)
    grads.w1 += h.T @ dz1
    grads.b1 += dz1.sum(axis=0)
    return dz1 @ p.w1.T


def pair_forward(h: np.ndarray, p: RankerParams):
    """Logit halves of every node in ``h``, a (z, input_dim) stack: the
    branches share weights, so the pair (a, b) has logit ``u[a] + v[b] +
    b_out`` and the branch runs once per node.  Returns ``(u, v, cache)``."""
    s, cache = _branch_forward(h, p)
    r = p.rdim
    return s @ p.w_out[:r], s @ p.w_out[r:], (cache, s)


def pair_backward(du: np.ndarray, dv: np.ndarray, cache, p: RankerParams,
                  grads: RankerParams) -> np.ndarray:
    """Backprop from d(loss)/du and d(loss)/dv, each node's d(loss)/d(logit)
    summed over its pairs, to the branch inputs; accumulates grads."""
    branch_cache, s = cache
    r = p.rdim
    grads.w_out[:r] += du @ s
    grads.w_out[r:] += dv @ s
    grads.b_out += du.sum(keepdims=True)
    ds = np.outer(du, p.w_out[:r]) + np.outer(dv, p.w_out[r:])
    return _branch_backward(ds, branch_cache, p, grads)


def bce_loss(ratings, labels) -> float:
    """Mean binary cross entropy with ratings clamped to [eps, 1-eps]."""
    r = np.asarray(ratings, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if r.size == 0:
        raise ValidationError("bce_loss needs at least one pair")
    if r.shape != y.shape:
        raise ValidationError("ratings and labels must have equal length")
    r = np.clip(r, EPS, 1.0 - EPS)
    return float(-np.mean(y * np.log(r) + (1.0 - y) * np.log(1.0 - r)))


@dataclass(frozen=True)
class RankingResult:
    """Descending importance order plus the aggregation evidence."""

    order: tuple[int, ...]
    copeland: dict[int, int]
    rating_sum: dict[int, float]
    tie_groups: tuple[tuple[int, ...], ...]


def rank_blocks(nodes, blocks) -> RankingResult:
    """Totalize the rating matrix over ``nodes``, given as row blocks ``(lo, r)``
    (``r[k, b]`` rates ``nodes[lo + k]`` over ``nodes[b]``, self-ratings zeroed),
    into a descending node list, taking each block's Copeland counts (ratings
    above 0.5) and rating sums as it passes: more wins first, ties broken by
    larger rating sum, then by node id."""
    nodes = [int(v) for v in nodes]
    wins = np.zeros(len(nodes), dtype=np.int64)
    sums = np.zeros(len(nodes))
    for lo, r in blocks:
        wins[lo:lo + len(r)], sums[lo:lo + len(r)] = (r > 0.5).sum(axis=1), r.sum(axis=1)
    copeland = dict(zip(nodes, wins.tolist()))
    rating_sum = dict(zip(nodes, sums.tolist()))

    def strength(v):
        return -copeland[v], -rating_sum[v]

    order = sorted(nodes, key=lambda v: (*strength(v), v))
    runs = (tuple(run) for _, run in groupby(order, key=strength))
    return RankingResult(order=tuple(order), copeland=copeland, rating_sum=rating_sum,
                         tie_groups=tuple(run for run in runs if len(run) > 1))


def rank_from_matrix(r: np.ndarray, nodes) -> RankingResult:
    """:func:`rank_blocks` over one block, the whole rating matrix: ``r[a, b]``
    rates ``nodes[a]`` over ``nodes[b]``, and the diagonal is ignored."""
    z = len(nodes)
    if r.shape != (z, z):
        raise ValidationError(f"rating matrix shape {r.shape} does not match {z} nodes")
    r = r.copy()
    np.fill_diagonal(r, 0.0)
    return rank_blocks(nodes, [(0, r)])
