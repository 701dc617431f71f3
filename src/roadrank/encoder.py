"""Sequence encoder: affine+tanh input encoding, a bidirectional LSTM, and
two-stage mean pooling.  Forward passes are batched over sequences; the
matching backward passes are written by hand so training needs no autograd
framework and gradients can be checked against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import ValidationError

GATES = ("i", "f", "c", "o")


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


@dataclass
class LSTMCellParams:
    """One direction's gate weights: input matrices (x, dim), recurrent
    matrices (dim, dim), and biases (dim,) for gates i, f, c, o."""

    w_xi: np.ndarray
    w_hi: np.ndarray
    b_i: np.ndarray
    w_xf: np.ndarray
    w_hf: np.ndarray
    b_f: np.ndarray
    w_xc: np.ndarray
    w_hc: np.ndarray
    b_c: np.ndarray
    w_xo: np.ndarray
    w_ho: np.ndarray
    b_o: np.ndarray

    @classmethod
    def init(cls, x: int, dim: int, rng: np.random.Generator) -> "LSTMCellParams":
        kw = {}
        for g in GATES:
            kw[f"w_x{g}"] = _uniform(rng, (x, dim), x)
            kw[f"w_h{g}"] = _uniform(rng, (dim, dim), dim)
            kw[f"b_{g}"] = _uniform(rng, (dim,), dim)
        return cls(**kw)

    @classmethod
    def zeros(cls, x: int, dim: int) -> "LSTMCellParams":
        kw = {}
        for g in GATES:
            kw[f"w_x{g}"] = np.zeros((x, dim))
            kw[f"w_h{g}"] = np.zeros((dim, dim))
            kw[f"b_{g}"] = np.zeros(dim)
        return cls(**kw)

    def tensors(self, prefix: str) -> dict[str, np.ndarray]:
        out = {}
        for g in GATES:
            for kind in (f"w_x{g}", f"w_h{g}", f"b_{g}"):
                out[f"{prefix}.{kind}"] = getattr(self, kind)
        return out


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
        out = {"w_in": self.w_in, "b_in": self.b_in}
        out.update(self.fw.tensors("fw"))
        out.update(self.bw.tensors("bw"))
        return out

    def copy(self) -> "EmbedParams":
        c = EmbedParams.zeros(self.m, self.x, self.dim)
        for name, arr in self.tensors().items():
            c.tensors()[name][...] = arr
        return c


def zero_grads(tensors: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in tensors.items()}


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
# ---------------------------------------------------------------------------

def _encode_batch(ids: np.ndarray, feats: np.ndarray, p: EmbedParams):
    """tanh(row @ w_in + b_in) for a (B, L) id batch; returns (X, cache)."""
    x0 = feats[ids]
    x = np.tanh(x0 @ p.w_in + p.b_in)
    return x, (x0, x)


def _cell_forward(x: np.ndarray, cell: LSTMCellParams):
    """Run one LSTM direction over (B, L, x); returns (h, cache)."""
    b, l, _ = x.shape
    dim = cell.b_i.shape[0]
    gi = np.empty((b, l, dim))
    gf = np.empty((b, l, dim))
    gg = np.empty((b, l, dim))
    go = np.empty((b, l, dim))
    cs = np.empty((b, l, dim))
    hs = np.empty((b, l, dim))
    h_prev = np.zeros((b, dim))
    c_prev = np.zeros((b, dim))
    for t in range(l):
        xt = x[:, t]
        gi[:, t] = sigmoid(xt @ cell.w_xi + h_prev @ cell.w_hi + cell.b_i)
        gf[:, t] = sigmoid(xt @ cell.w_xf + h_prev @ cell.w_hf + cell.b_f)
        gg[:, t] = np.tanh(xt @ cell.w_xc + h_prev @ cell.w_hc + cell.b_c)
        go[:, t] = sigmoid(xt @ cell.w_xo + h_prev @ cell.w_ho + cell.b_o)
        c_prev = gf[:, t] * c_prev + gi[:, t] * gg[:, t]
        cs[:, t] = c_prev
        h_prev = go[:, t] * np.tanh(c_prev)
        hs[:, t] = h_prev
    return hs, (x, gi, gf, gg, go, cs, hs)


def _bilstm_batch(x: np.ndarray, p: EmbedParams):
    """Both directions over (B, L, x); returns ((B, L, 2*dim), cache)."""
    h_fw, cache_fw = _cell_forward(x, p.fw)
    h_bw_rev, cache_bw = _cell_forward(x[:, ::-1], p.bw)
    h2 = np.concatenate([h_fw, h_bw_rev[:, ::-1]], axis=2)
    return h2, (cache_fw, cache_bw)


def _pool_batch(h: np.ndarray) -> np.ndarray:
    """(G, num, L, w) -> (G, 2w): mean over sequences per position, then
    first position concatenated with the mean of the remaining positions."""
    hbar = h.mean(axis=1)
    hhat = hbar[:, 1:].mean(axis=1)
    return np.concatenate([hbar[:, 0], hhat], axis=1)


# ---------------------------------------------------------------------------
# backward passes
# ---------------------------------------------------------------------------

def _encode_backward(dx: np.ndarray, cache, p: EmbedParams, grads: dict[str, np.ndarray]):
    x0, x = cache
    dpre = dx * (1.0 - x * x)
    flat_in = x0.reshape(-1, p.m)
    flat_d = dpre.reshape(-1, p.x)
    grads["w_in"] += flat_in.T @ flat_d
    grads["b_in"] += flat_d.sum(axis=0)


def _cell_backward(dh_out: np.ndarray, cache, cell: LSTMCellParams,
                   grads: dict[str, np.ndarray], prefix: str) -> np.ndarray:
    x, gi, gf, gg, go, cs, hs = cache
    b, l, _ = x.shape
    dim = cell.b_i.shape[0]
    dx = np.zeros_like(x)
    dh_next = np.zeros((b, dim))
    dc_next = np.zeros((b, dim))
    for t in range(l - 1, -1, -1):
        dh = dh_out[:, t] + dh_next
        tc = np.tanh(cs[:, t])
        do = dh * tc
        dc = dh * go[:, t] * (1.0 - tc * tc) + dc_next
        c_prev = cs[:, t - 1] if t > 0 else np.zeros((b, dim))
        h_prev = hs[:, t - 1] if t > 0 else np.zeros((b, dim))
        di = dc * gg[:, t]
        dg = dc * gi[:, t]
        df = dc * c_prev
        dc_next = dc * gf[:, t]
        da = {
            "i": di * gi[:, t] * (1.0 - gi[:, t]),
            "f": df * gf[:, t] * (1.0 - gf[:, t]),
            "c": dg * (1.0 - gg[:, t] * gg[:, t]),
            "o": do * go[:, t] * (1.0 - go[:, t]),
        }
        xt = x[:, t]
        dh_next = np.zeros((b, dim))
        for g in GATES:
            grads[f"{prefix}.w_x{g}"] += xt.T @ da[g]
            grads[f"{prefix}.w_h{g}"] += h_prev.T @ da[g]
            grads[f"{prefix}.b_{g}"] += da[g].sum(axis=0)
            dx[:, t] += da[g] @ getattr(cell, f"w_x{g}").T
            dh_next += da[g] @ getattr(cell, f"w_h{g}").T
    return dx


def _bilstm_backward(dh2: np.ndarray, cache, p: EmbedParams,
                     grads: dict[str, np.ndarray]) -> np.ndarray:
    cache_fw, cache_bw = cache
    dim = p.dim
    dx = _cell_backward(dh2[:, :, :dim], cache_fw, p.fw, grads, "fw")
    dx_rev = _cell_backward(dh2[:, ::-1, dim:], cache_bw, p.bw, grads, "bw")
    return dx + dx_rev[:, ::-1]


def _pool_backward(dpooled: np.ndarray, num: int, l: int) -> np.ndarray:
    g, twow = dpooled.shape
    w = twow // 2
    dhbar = np.zeros((g, l, w))
    dhbar[:, 0] = dpooled[:, :w]
    dhbar[:, 1:] = dpooled[:, None, w:] / (l - 1)
    return np.broadcast_to(dhbar[:, None], (g, num, l, w)) / num

