"""Sequence encoder: affine+tanh input encoding, a bidirectional LSTM, and
two-stage mean pooling.  Forward passes are batched over sequences; the
matching backward passes are written by hand so training needs no autograd
framework and gradients can be checked against finite differences.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .graph import ValidationError

# column-block order of the packed gate arrays: the three sigmoid gates,
# then the tanh candidate, so one sigmoid call covers the first 3*dim columns
GATE_ORDER = "ifoc"


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function in its tanh form, which cannot overflow."""
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """Every layer's initial weights: draws from U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


@dataclass
class LSTMCellParams:
    """One direction's weights, packed in ``GATE_ORDER`` column blocks of
    width dim: input weights ``w_x`` (x, 4*dim), recurrent weights ``w_h``
    (dim, 4*dim) and biases ``b`` (4*dim,)."""

    w_x: np.ndarray
    w_h: np.ndarray
    b: np.ndarray

    @property
    def dim(self) -> int:
        return self.w_h.shape[0]

    @classmethod
    def init(cls, x: int, dim: int, rng: np.random.Generator) -> "LSTMCellParams":
        cell = cls.zeros(x, dim)
        # one gate at a time in i, f, c, o order: this order fixes what a seed draws
        for g in "ifco":
            w_x, w_h, b = cell.gate(g)
            w_x[...] = uniform_init(rng, (x, dim), x)
            w_h[...] = uniform_init(rng, (dim, dim), dim)
            b[...] = uniform_init(rng, (dim,), dim)
        return cell

    @classmethod
    def zeros(cls, x: int, dim: int) -> "LSTMCellParams":
        return cls(w_x=np.zeros((x, 4 * dim)), w_h=np.zeros((dim, 4 * dim)), b=np.zeros(4 * dim))

    def gate(self, g: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views ``(w_x, w_h, b)`` of gate ``g``'s column block."""
        k = GATE_ORDER.index(g) * self.dim
        cols = slice(k, k + self.dim)
        return self.w_x[:, cols], self.w_h[:, cols], self.b[cols]


@dataclass
class EmbedParams:
    """All learnable tensors of the encoder.

    ``w_in`` (m, x) and ``b_in`` (x,) form the shared initial encoding
    applied to both attribute rows and attribute one-hots; ``fw`` and
    ``bw`` are independent LSTM cells.  The pooled embedding width is
    ``hdim = 4 * dim``.
    """

    w_in: np.ndarray
    b_in: np.ndarray
    fw: LSTMCellParams
    bw: LSTMCellParams
    m: int
    x: int
    dim: int

    @property
    def hdim(self) -> int:
        return 4 * self.dim

    @classmethod
    def init(cls, m: int, x: int, dim: int, seed) -> "EmbedParams":
        if x < 1 or dim < 1:
            raise ValidationError("encoder dims must be >= 1")
        rng = np.random.default_rng(seed)
        p = cls.zeros(m, x, dim)
        for t in (p.w_in, p.b_in):
            t[...] = uniform_init(rng, t.shape, m)
        p.fw = LSTMCellParams.init(x, dim, rng)
        p.bw = LSTMCellParams.init(x, dim, rng)
        return p

    @classmethod
    def zeros(cls, m: int, x: int, dim: int) -> "EmbedParams":
        return cls(
            w_in=np.zeros((m, x)),
            b_in=np.zeros(x),
            fw=LSTMCellParams.zeros(x, dim),
            bw=LSTMCellParams.zeros(x, dim),
            m=m,
            x=x,
            dim=dim,
        )

    def tensors(self) -> dict[str, np.ndarray]:
        """Every tensor by name; the per-gate names (``fw.w_xi``, ...) are
        views into the packed cell arrays."""
        out = {"w_in": self.w_in, "b_in": self.b_in}
        for side, cell in (("fw", self.fw), ("bw", self.bw)):
            for g in GATE_ORDER:
                w_x, w_h, b = cell.gate(g)
                out.update({f"{side}.w_x{g}": w_x, f"{side}.w_h{g}": w_h, f"{side}.b_{g}": b})
        return out

    def copy(self) -> "EmbedParams":
        return copy.deepcopy(self)


def minmax_scale_columns(A: np.ndarray) -> np.ndarray:
    """Scale each attribute column to [0, 1]; constant columns map to 0.

    Keeps the tanh encoder out of saturation when attribute units differ
    wildly (segment lengths vs lane counts).
    """
    lo = A.min(axis=0)
    span = A.max(axis=0) - lo
    safe = np.where(span == 0, 1.0, span)
    return (A - lo) / safe


def vertex_features(a_scaled: np.ndarray) -> np.ndarray:
    """Per-vertex input rows: node ids map to their (scaled) attribute row,
    attribute ids to an m-dimensional one-hot."""
    m = a_scaled.shape[1]
    return np.vstack([a_scaled, np.eye(m)])


# ---------------------------------------------------------------------------
# levels: the columns each LSTM step computes
#
# Level t of a direction holds distinct length-(t + 1) prefixes, its
# "entries"; the backward direction's prefixes are reversed suffixes.  A
# step computes one column per entry from its parent entry's state, so
# sequences that share a prefix share its columns.  Per-entry arrays are
# laid out (width, entries).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Levels:
    """One direction's entries over a batch of sequences, level by level:
    ``vertex[t]`` is each entry's last vertex id, ``parent[t]`` the index of
    its length-t prefix among level t - 1's entries, and ``seq[t]`` each
    sequence's entry.  None is the identity map: entry k extends level
    t - 1's entry k (always so at level 0), or sequence k is entry k."""

    vertex: list[np.ndarray]
    parent: list[np.ndarray | None]
    seq: list[np.ndarray | None]

    @property
    def batch(self) -> int:
        """The number of sequences."""
        last = self.seq[-1]
        return self.vertex[-1].size if last is None else last.size


def identity_levels(ids: np.ndarray) -> Levels:
    """Levels over a (B, L) id batch with one entry per sequence."""
    l = ids.shape[1]
    return Levels([ids[:, t] for t in range(l)], [None] * l, [None] * l)


def _take(a: np.ndarray, idx: np.ndarray | None) -> np.ndarray:
    """Columns ``idx`` of ``a``; None takes every column in order."""
    return a if idx is None else np.take(a, idx, axis=1)


def _sum_into(a: np.ndarray, idx: np.ndarray | None, size: int) -> np.ndarray:
    """Sum column k of ``a`` into column ``idx[k]`` of a (rows, size) result;
    None keeps the columns as they are."""
    if idx is None:
        return a
    return np.stack([np.bincount(idx, weights=row, minlength=size) for row in a])


class PrefixIndex:
    """The distinct prefixes of every sequence of a sample set, ranked once
    per level so that a batch finds its own by marking, without sorting.

    ``entry[t][s]`` (int32) is the rank of sequence s's length-(t + 1)
    prefix among that level's ``size[t]`` distinct prefixes.  From the first
    level whose prefixes are all distinct on, ``entry[t]`` is None: a
    prefix's id is then its sequence's, and no map is stored.
    """

    def __init__(self, seqs: np.ndarray):
        s, l = seqs.shape
        base = np.int64(seqs.max()) + 1
        self.entry: list[np.ndarray | None] = [None] * l
        self.size = [s] * l
        prev = np.zeros(s, dtype=np.int32)
        for t in range(l):
            # rank the (parent, vertex) keys as np.unique's inverse would, but
            # with fewer int64 copies: a level peaks near 40 bytes per sequence
            key = prev.astype(np.int64) * base
            key += seqs[:, t]
            order = np.argsort(key, kind="stable")
            key = key[order]
            rank = np.empty(s, dtype=np.int32)
            rank[0] = 0
            np.cumsum(key[1:] != key[:-1], dtype=np.int32, out=rank[1:])
            del key
            if rank[-1] + 1 == s:
                break
            prev = np.empty(s, dtype=np.int32)
            prev[order] = rank
            self.entry[t] = prev
            self.size[t] = int(rank[-1]) + 1

    def levels(self, ids: np.ndarray, rows: np.ndarray) -> Levels:
        """The levels of the batch ``ids``, the indexed sequences ``rows``."""
        vertex, parent, seq = [], [], []
        prev = None  # the previous level's ``seq``
        for t, (entry, size) in enumerate(zip(self.entry, self.size)):
            if entry is None:  # every prefix distinct: sequence k is entry k
                vertex.append(ids[:, t])
                parent.append(prev)
                seq.append(None)
                prev = None
                continue
            ent = entry[rows]
            mark = np.zeros(size, dtype=bool)
            mark[ent] = True
            uniq = np.flatnonzero(mark)
            local = np.empty(size, dtype=np.intp)
            local[uniq] = np.arange(uniq.size)
            inv = local[ent]
            rep = np.empty(uniq.size, dtype=np.intp)  # one sequence of each entry
            rep[inv] = np.arange(inv.size)
            vertex.append(ids[rep, t])
            parent.append(None if t == 0 else prev[rep])
            seq.append(inv)
            prev = inv
        return Levels(vertex, parent, seq)


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def _encode_batch(ids: np.ndarray, feats: np.ndarray, p: EmbedParams):
    """tanh(row @ w_in + b_in) of every vertex, once per batch; returns the
    (x, n + m) table and the cache.  The cells and the pooling gather the
    (B, L) batch ``ids``'s inputs from it by vertex id; perfbench/spans.py
    counts the rows of ``ids`` as the sequences encoded."""
    enc = np.tanh(feats @ p.w_in + p.b_in)
    return enc.T, (feats, enc)


def _cell_forward(enc: np.ndarray, levels: Levels, cell: LSTMCellParams):
    """Run one LSTM direction over ``levels``, one step per level, taking
    each entry's input from the (x, n + m) table ``enc`` and its previous
    state from its parent; returns the (dim, entries) states per level and
    the cache."""
    dim = cell.dim
    bias = cell.b[:, None]
    xs, gates, cs, hs = [], [], [], []
    h = c = np.zeros((dim, levels.vertex[0].size))
    for vertex, parent in zip(levels.vertex, levels.parent):
        h, c = _take(h, parent), _take(c, parent)
        x = np.take(enc, vertex, axis=1)
        at = cell.w_x.T @ x
        at += cell.w_h.T @ h
        at += bias
        at[:3 * dim] = sigmoid(at[:3 * dim])
        np.tanh(at[3 * dim:], out=at[3 * dim:])
        i, f, o, g = np.split(at, 4)
        c = f * c + i * g
        h = o * np.tanh(c)
        xs.append(x)
        gates.append(at)
        cs.append(c)
        hs.append(h)
    return hs, (levels, xs, gates, cs, hs)


def _bilstm_batch(enc: np.ndarray, levels: tuple[Levels, Levels], p: EmbedParams):
    """Both directions over their ``(forward, backward)`` levels; returns
    each sequence's states as (L, 2*dim, B) and the cache.  Backward level t
    is the reversed suffix that starts at position L - 1 - t."""
    fw, bw = levels
    h_fw, cache_fw = _cell_forward(enc, fw, p.fw)
    h_bw, cache_bw = _cell_forward(enc, bw, p.bw)
    l = len(h_fw)
    h2 = np.empty((l, 2 * p.dim, fw.batch))
    for t in range(l):
        h2[t, :p.dim] = _take(h_fw[t], fw.seq[t])
        h2[t, p.dim:] = _take(h_bw[l - 1 - t], bw.seq[l - 1 - t])
    return h2, (cache_fw, cache_bw)


def _pool_batch(h: np.ndarray, num: int) -> np.ndarray:
    """(L, w, G*num) -> (G, 2w), node g owning sequences g*num..g*num+num-1:
    mean over a node's sequences per position, then the first position
    concatenated with the mean of the remaining positions."""
    l, w, b = h.shape
    hbar = h.reshape(l, w, b // num, num).mean(axis=3)
    hhat = hbar[1:].mean(axis=0)
    return np.concatenate([hbar[0], hhat]).T


# ---------------------------------------------------------------------------
# backward passes
# ---------------------------------------------------------------------------

def _encode_backward(ids: list[np.ndarray], dx: list[np.ndarray], cache, p: EmbedParams,
                     grads: EmbedParams):
    """Sum each (x, k) input gradient of ``dx`` per vertex id, read from the
    (k,) array of ``ids`` at the same position, then one matmul from the
    vertex rows to ``w_in``."""
    feats, enc = cache
    dsum = sum(_sum_into(d, i, enc.shape[0]) for i, d in zip(ids, dx)).T
    dpre = dsum * (1.0 - enc * enc)
    grads.w_in += feats.T @ dpre
    grads.b_in += dpre.sum(axis=0)


def _cell_backward(dh_out: np.ndarray, cache, cell: LSTMCellParams,
                   grads: LSTMCellParams) -> list[np.ndarray]:
    """Backprop one direction into ``grads`` from ``dh_out`` (L, dim, B),
    each sequence's state gradient in level order; returns dx, (x, entries)
    per level.  A level's entries first sum their sequences' gradients,
    then pass dh and dc down to their parents, each parent summing its
    children's."""
    levels, xs, gates, cs, hs = cache
    dim = cell.dim
    dx = [None] * len(gates)
    dh_next = dc_next = 0.0
    for t in range(len(gates) - 1, -1, -1):
        at = gates[t]
        parent = levels.parent[t]
        i, f, o, g = np.split(at, 4)
        da = np.empty_like(at)
        da_i, da_f, da_o, da_c = np.split(da, 4)
        dh = _sum_into(dh_out[t], levels.seq[t], at.shape[1]) + dh_next
        tc = np.tanh(cs[t])
        dc = dh * o * (1.0 - tc * tc) + dc_next
        c_prev = _take(cs[t - 1], parent) if t > 0 else 0.0
        da_i[...] = dc * g * i * (1.0 - i)
        da_f[...] = dc * c_prev * f * (1.0 - f)
        da_o[...] = dh * tc * o * (1.0 - o)
        da_c[...] = dc * i * (1.0 - g * g)
        grads.w_x += xs[t] @ da.T
        grads.b += da.sum(axis=1)
        dx[t] = cell.w_x @ da
        if t > 0:
            grads.w_h += _take(hs[t - 1], parent) @ da.T
            size = gates[t - 1].shape[1]
            dh_next = _sum_into(cell.w_h @ da, parent, size)
            dc_next = _sum_into(dc * f, parent, size)
    return dx


def _bilstm_backward(dh2: np.ndarray, cache, p: EmbedParams, grads: EmbedParams):
    """Both directions' backward passes; returns every entry's vertex id and
    its input gradient, per level of both directions."""
    cache_fw, cache_bw = cache
    dim = p.dim
    dx_fw = _cell_backward(dh2[:, :dim], cache_fw, p.fw, grads.fw)
    dx_bw = _cell_backward(dh2[::-1, dim:], cache_bw, p.bw, grads.bw)
    return cache_fw[0].vertex + cache_bw[0].vertex, dx_fw + dx_bw


def _pool_backward(dpooled: np.ndarray, num: int, l: int) -> np.ndarray:
    """(G, 2w) -> (L, w, G*num), the gradient of :func:`_pool_batch`."""
    g, twow = dpooled.shape
    w = twow // 2
    dhbar = np.empty((l, w, g))
    dhbar[0] = dpooled[:, :w].T
    dhbar[1:] = dpooled[:, w:].T / (l - 1)
    return np.repeat(dhbar / num, num, axis=2)
