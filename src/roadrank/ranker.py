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

from .encoder import sigmoid
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

        def u(shape, fan_in):
            bound = 1.0 / np.sqrt(fan_in)
            return rng.uniform(-bound, bound, size=shape)

        return cls(
            w1=u((input_dim, f1), input_dim),
            b1=u((f1,), input_dim),
            w2=u((f1, f2), f1),
            b2=u((f2,), f1),
            w3=u((f2, rdim), f2),
            b3=u((rdim,), f2),
            w_out=u((2 * rdim,), 2 * rdim),
            b_out=u((1,), 2 * rdim),
        )

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


def pair_forward(hi: np.ndarray, hj: np.ndarray, p: RankerParams):
    """Rate a batch of pairs; ``hi``/``hj`` are (P, input_dim) stacks.

    Returns (ratings, cache); ratings lie strictly inside (0, 1).
    """
    si, cache_i = _branch_forward(hi, p)
    sj, cache_j = _branch_forward(hj, p)
    r = p.rdim
    logit = si @ p.w_out[:r] + sj @ p.w_out[r:] + p.b_out[0]
    return sigmoid(logit), (cache_i, cache_j, si, sj, logit)


def pair_backward(dlogit: np.ndarray, cache, p: RankerParams,
                  grads: RankerParams) -> tuple[np.ndarray, np.ndarray]:
    """Backprop from d(loss)/d(logit) to branch inputs; accumulates grads."""
    cache_i, cache_j, si, sj, _ = cache
    r = p.rdim
    grads.w_out[:r] += dlogit @ si
    grads.w_out[r:] += dlogit @ sj
    grads.b_out += dlogit.sum(keepdims=True)
    dsi = np.outer(dlogit, p.w_out[:r])
    dsj = np.outer(dlogit, p.w_out[r:])
    dhi = _branch_backward(dsi, cache_i, p, grads)
    dhj = _branch_backward(dsj, cache_j, p, grads)
    return dhi, dhj


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


def rank_from_matrix(r: np.ndarray, nodes) -> RankingResult:
    """Totalize a rating matrix into a descending node list.

    ``r[a, b]`` rates ``nodes[a]`` over ``nodes[b]`` (the diagonal is
    ignored).  A node's primary score is its Copeland count (pairs won at
    the 0.5 threshold); ties break by total rating mass, then by node id.
    """
    nodes = [int(v) for v in nodes]
    z = len(nodes)
    if r.shape != (z, z):
        raise ValidationError(f"rating matrix shape {r.shape} does not match {z} nodes")
    off = ~np.eye(z, dtype=bool)
    wins = ((r > 0.5) & off).sum(axis=1)
    sums = np.where(off, r, 0.0).sum(axis=1)
    copeland = {v: int(wins[a]) for a, v in enumerate(nodes)}
    rating_sum = {v: float(sums[a]) for a, v in enumerate(nodes)}

    def strength(v):
        return -copeland[v], -rating_sum[v]

    order = sorted(nodes, key=lambda v: (*strength(v), v))
    runs = (tuple(run) for _, run in groupby(order, key=strength))
    return RankingResult(order=tuple(order), copeland=copeland, rating_sum=rating_sum,
                         tie_groups=tuple(run for run in runs if len(run) > 1))
