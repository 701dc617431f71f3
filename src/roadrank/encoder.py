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


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
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
            w_x[...] = _uniform(rng, (x, dim), x)
            w_h[...] = _uniform(rng, (dim, dim), dim)
            b[...] = _uniform(rng, (dim,), dim)
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
        return cls(
            w_in=_uniform(rng, (m, x), m),
            b_in=_uniform(rng, (x,), m),
            fw=LSTMCellParams.init(x, dim, rng),
            bw=LSTMCellParams.init(x, dim, rng),
            m=m,
            x=x,
            dim=dim,
        )

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
# forward passes
#
# Batched arrays are laid out (L, width, B): step t of every sequence is the
# contiguous (width, B) block ``arr[t]``, so each gate of a step is a
# contiguous (dim, B) row block however small dim is.
# ---------------------------------------------------------------------------

def _encode_batch(ids: np.ndarray, feats: np.ndarray, p: EmbedParams):
    """tanh(row @ w_in + b_in) for a (B, L) id batch; returns ((L, x, B), cache).
    Each vertex is encoded once and the batch gathers its rows by id."""
    enc = np.tanh(feats @ p.w_in + p.b_in)
    x = enc.T[:, ids.T].transpose(1, 0, 2)
    return x, (ids, feats, enc)


def _cell_forward(x: np.ndarray, cell: LSTMCellParams):
    """Run one LSTM direction over (L, x, B); returns ((L, dim, B), cache).
    One matmul projects every step's input into ``a``; each step then turns
    its block in place into the gate activations."""
    l, _, b = x.shape
    dim = cell.dim
    a = cell.w_x.T @ x
    bias = cell.b[:, None]
    cs = np.empty((l, dim, b))
    hs = np.empty((l, dim, b))
    h = np.zeros((dim, b))
    c = np.zeros((dim, b))
    for t in range(l):
        at = a[t]
        at += cell.w_h.T @ h
        at += bias
        at[:3 * dim] = sigmoid(at[:3 * dim])
        np.tanh(at[3 * dim:], out=at[3 * dim:])
        i, f, o, g = np.split(at, 4)
        c = f * c + i * g
        cs[t] = c
        h = o * np.tanh(c)
        hs[t] = h
    return hs, (x, a, cs, hs)


def _bilstm_batch(x: np.ndarray, p: EmbedParams):
    """Both directions over (L, x, B); returns ((L, 2*dim, B), cache)."""
    h_fw, cache_fw = _cell_forward(x, p.fw)
    h_bw_rev, cache_bw = _cell_forward(x[::-1], p.bw)
    h2 = np.concatenate([h_fw, h_bw_rev[::-1]], axis=1)
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

def _encode_backward(dx: np.ndarray, cache, p: EmbedParams, grads: EmbedParams):
    """Sum dx per vertex, then one matmul from the vertex rows to ``w_in``."""
    ids, feats, enc = cache
    flat_ids = ids.T.ravel()
    dsum = np.stack([np.bincount(flat_ids, weights=dx[:, k].ravel(), minlength=enc.shape[0])
                     for k in range(p.x)], axis=1)
    dpre = dsum * (1.0 - enc * enc)
    grads.w_in += feats.T @ dpre
    grads.b_in += dpre.sum(axis=0)


def _cell_backward(dh_out: np.ndarray, cache, cell: LSTMCellParams,
                   grads: LSTMCellParams) -> np.ndarray:
    """Backprop one direction into ``grads``; returns dx (L, x, B).  The
    steps fill ``da``, the packed gate pre-activation gradients, and add
    each step's weight gradients; one matmul after the loop gives dx."""
    x, a, cs, hs = cache
    l = x.shape[0]
    dim = cell.dim
    da = np.empty_like(a)
    dh_next = 0.0
    dc_next = 0.0
    for t in range(l - 1, -1, -1):
        i, f, o, g = np.split(a[t], 4)
        da_t = da[t]
        da_i, da_f, da_o, da_c = np.split(da_t, 4)
        dh = dh_out[t] + dh_next
        tc = np.tanh(cs[t])
        dc = dh * o * (1.0 - tc * tc) + dc_next
        c_prev = cs[t - 1] if t > 0 else 0.0
        da_i[...] = dc * g * i * (1.0 - i)
        da_f[...] = dc * c_prev * f * (1.0 - f)
        da_o[...] = dh * tc * o * (1.0 - o)
        da_c[...] = dc * i * (1.0 - g * g)
        dc_next = dc * f
        dh_next = cell.w_h @ da_t
        grads.w_x += x[t] @ da_t.T
        if t > 0:
            grads.w_h += hs[t - 1] @ da_t.T
    grads.b += da.sum(axis=(0, 2))
    return cell.w_x @ da


def _bilstm_backward(dh2: np.ndarray, cache, p: EmbedParams, grads: EmbedParams) -> np.ndarray:
    cache_fw, cache_bw = cache
    dim = p.dim
    dx = _cell_backward(dh2[:, :dim], cache_fw, p.fw, grads.fw)
    dx_rev = _cell_backward(dh2[::-1, dim:], cache_bw, p.bw, grads.bw)
    dx += dx_rev[::-1]
    return dx


def _pool_backward(dpooled: np.ndarray, num: int, l: int) -> np.ndarray:
    """(G, 2w) -> (L, w, G*num), the gradient of :func:`_pool_batch`."""
    g, twow = dpooled.shape
    w = twow // 2
    dhbar = np.empty((l, w, g))
    dhbar[0] = dpooled[:, :w].T
    dhbar[1:] = dpooled[:, w:].T / (l - 1)
    return np.repeat(dhbar / num, num, axis=2)
