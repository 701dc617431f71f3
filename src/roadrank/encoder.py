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


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function in its tanh form, which cannot overflow.  With
    ``out`` (which may be ``z``) the same operations run in place."""
    if out is None:
        return 0.5 * (1.0 + np.tanh(0.5 * z))
    np.multiply(0.5, z, out=out)
    np.tanh(out, out=out)
    np.add(1.0, out, out=out)
    return np.multiply(0.5, out, out=out)


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

    @property
    def m(self) -> int:
        return self.w_in.shape[0]

    @property
    def x(self) -> int:
        return self.w_in.shape[1]

    @property
    def dim(self) -> int:
        return self.fw.dim

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
    its length-t prefix among level t - 1's entries (None at level 0, which
    has no parent), and ``seq[t]`` each sequence's entry."""

    vertex: list[np.ndarray]
    parent: list[np.ndarray | None]
    seq: list[np.ndarray]


def identity_levels(ids: np.ndarray) -> Levels:
    """Levels over a (B, L) id batch with one entry per sequence: entry k
    is sequence k's at every level."""
    b, l = ids.shape
    k = np.arange(b)
    return Levels([ids[:, t] for t in range(l)], [None] + [k] * (l - 1), [k] * l)


def _take(a: np.ndarray, idx: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Columns ``idx`` of ``a``, written into ``out``."""
    # mode "raise" would fill a temporary and copy it to ``out``; the
    # indices come from the levels and are always in range
    return np.take(a, idx, axis=1, out=out, mode="clip")


def _sum_into(a: np.ndarray, idx: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sum column k of ``a`` into column ``idx[k]`` of ``out``."""
    for row, dst in zip(a, out):
        dst[...] = np.bincount(idx, weights=row, minlength=out.shape[1])
    return out


# float64 rows per entry, in units of dim: a level's cache holds the gates
# (4), c, tanh(c) and h; the step slot holds one level's temporaries, of
# which the backward pass has the most (12, and x rows for its input)
CACHE_ROWS = 7
STEP_ROWS = 12


class Workspace:
    """The float64 buffers that encoder passes write their arrays into, by
    slot name: each direction's per-level cache (``fw``, ``bw``), one level's
    temporaries (``step``, reused level after level) and the sequences'
    states or their gradient (``states``).

    Training keeps one workspace from batch to batch, so a batch's live set
    is written into memory the previous batch already paged in, instead of
    being freed and faulted in again.  A slot grows to the largest size a
    pass has needed, times ``1 + spare``, and never shrinks: a workspace
    that later passes reuse takes some spare, so that slightly larger
    batches do not grow it again, while one made for a single pass takes
    none.  Every view handed out is valid only until the next pass writes
    into the same slot."""

    def __init__(self, spare: float = 0.0):
        self._slots: dict[str, np.ndarray] = {}
        self.spare = spare
        self.width = 0  # the widest level of the pass fitted last: the step slot's stride

    def grow(self, name: str, size: int) -> None:
        """Make slot ``name`` hold at least ``size`` items."""
        if name not in self._slots or self._slots[name].size < size:
            self._slots.pop(name, None)  # the smaller buffer goes before the larger comes
            self._slots[name] = np.empty(size + int(size * self.spare))

    def fit(self, x: int, dim: int, sides: dict[str, Levels]) -> None:
        """Size the cache slot of each side's levels and the step slot for
        their widest level, before the pass writes anything."""
        self.width = max(v.size for lv in sides.values() for v in lv.vertex)
        for side, lv in sides.items():
            self.grow(side, CACHE_ROWS * dim * sum(v.size for v in lv.vertex))
        self.grow("step", (x + STEP_ROWS * dim) * self.width)

    def views(self, name: str, shapes, stride: int | None = None) -> list[np.ndarray]:
        """C-contiguous views of slot ``name``, one per (rows, cols) shape,
        laid end to end.  With ``stride`` each view's region holds rows x
        stride items, so a view sits at the same place at every level."""
        buf, out, k = self._slots[name], [], 0
        for rows, cols in shapes:
            out.append(buf[k:k + rows * cols].reshape(rows, cols))
            k += rows * (cols if stride is None else stride)
        return out

    def array(self, name: str, shape) -> np.ndarray:
        """Slot ``name`` grown to ``shape`` and viewed as it."""
        size = int(np.prod(shape))
        self.grow(name, size)
        return self._slots[name][:size].reshape(shape)


class PrefixIndex:
    """The distinct prefixes of every sequence of a sample set, ranked once
    per level so that a batch finds its own by marking, without sorting.

    ``entry[t][s]`` (int32) is the rank of sequence s's length-(t + 1)
    prefix among that level's ``size[t]`` distinct prefixes.  From the first
    level whose prefixes are all distinct on, ``entry[t]`` is None: a
    prefix's id is then its sequence's, and no map is stored; the batch's
    levels there map entry k to sequence k.
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
                inv = rep = np.arange(len(rows))
            else:
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


def _cell_forward(enc: np.ndarray, levels: Levels, cell: LSTMCellParams,
                  ws: Workspace, side: str):
    """Run one LSTM direction over ``levels``, one step per level, taking
    each entry's input from the (x, n + m) table ``enc`` and its previous
    state from its parent; returns the (dim, entries) states per level and
    the cache.  The arrays are views into slot ``side`` and the step slot of
    ``ws``, which must have been fitted to ``levels``."""
    dim = cell.dim
    bias = cell.b[:, None]
    gates, cs, tcs, hs = [], [], [], []
    blocks = ws.views(side, [(CACHE_ROWS * dim, v.size) for v in levels.vertex])
    for t, (vertex, parent, block) in enumerate(zip(levels.vertex, levels.parent, blocks)):
        e = vertex.size
        x, h_in, c_in, wh, ig = ws.views(
            "step", [(enc.shape[0], e), (dim, e), (dim, e), (4 * dim, e), (dim, e)], ws.width)
        if t == 0:  # no parent: the state starts at zero
            h_in.fill(0.0)
            c_in.fill(0.0)
        else:
            h_in, c_in = _take(h, parent, h_in), _take(c, parent, c_in)
        at, c, tc, h = np.split(block, [4 * dim, 5 * dim, 6 * dim])
        # the operations and their order are those of the expressions
        # at = w_x.T @ x + w_h.T @ h + b, c = f * c + i * g, h = o * tanh(c)
        np.take(enc, vertex, axis=1, out=x, mode="clip")
        np.matmul(cell.w_x.T, x, out=at)
        at += np.matmul(cell.w_h.T, h_in, out=wh)
        at += bias
        sigmoid(at[:3 * dim], out=at[:3 * dim])
        np.tanh(at[3 * dim:], out=at[3 * dim:])
        i, f, o, g = np.split(at, 4)
        np.multiply(f, c_in, out=c)
        c += np.multiply(i, g, out=ig)
        np.tanh(c, out=tc)
        np.multiply(o, tc, out=h)
        gates.append(at)
        cs.append(c)
        tcs.append(tc)
        hs.append(h)
    return hs, (levels, enc, gates, cs, tcs, hs, ws)


def _bilstm_batch(enc: np.ndarray, levels: tuple[Levels, Levels], p: EmbedParams,
                  ws: Workspace):
    """Both directions over their ``(forward, backward)`` levels; returns
    each sequence's states as (L, 2*dim, B) and the cache.  Backward level t
    is the reversed suffix that starts at position L - 1 - t.  Every array
    is a view into ``ws``, fitted to these levels before the first is
    written."""
    fw, bw = levels
    ws.fit(enc.shape[0], p.dim, {"fw": fw, "bw": bw})
    h_fw, cache_fw = _cell_forward(enc, fw, p.fw, ws, "fw")
    h_bw, cache_bw = _cell_forward(enc, bw, p.bw, ws, "bw")
    l = len(h_fw)
    h2 = ws.array("states", (l, 2 * p.dim, fw.seq[0].size))
    for t in range(l):
        _take(h_fw[t], fw.seq[t], h2[t, :p.dim])
        _take(h_bw[l - 1 - t], bw.seq[l - 1 - t], h2[t, p.dim:])
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

def _encode_backward(dsum: np.ndarray, cache, p: EmbedParams, grads: EmbedParams):
    """Backprop the (x, n + m) input gradient ``dsum``, summed per vertex
    id, through the table's tanh: one matmul from the vertex rows to
    ``w_in``."""
    feats, enc = cache
    dpre = dsum.T * (1.0 - enc * enc)
    grads.w_in += feats.T @ dpre
    grads.b_in += dpre.sum(axis=0)


def _cell_backward(dh_out: np.ndarray, cache, cell: LSTMCellParams,
                   grads: LSTMCellParams) -> list[np.ndarray]:
    """Backprop one direction into ``grads`` from ``dh_out`` (L, dim, B),
    each sequence's state gradient in level order; returns per level the
    input gradient summed per vertex id, (x, n + m).  A level's entries
    first sum their sequences' gradients, then pass dh and dc down to their
    parents, each parent summing its children's.  The temporaries are views
    into the cache's step slot, each at the same place at every level."""
    levels, enc, gates, cs, tcs, hs, ws = cache
    dim = cell.dim
    dsums = [None] * len(gates)
    dh_next = dc_next = 0.0
    for t in range(len(gates) - 1, -1, -1):
        at, parent, tc = gates[t], levels.parent[t], tcs[t]
        e = at.shape[1]
        size = gates[t - 1].shape[1] if t > 0 else 0
        da, dh, dc, s, prev, x, wh_da, dc_f, dh_sum, dc_sum = ws.views(
            "step", [(4 * dim, e)] + [(dim, e)] * 4 + [(enc.shape[0], e)] + [(dim, e)] * 2
            + [(dim, size)] * 2, ws.width)
        i, f, o, g = np.split(at, 4)
        da_i, da_f, da_o, da_c = np.split(da, 4)
        # the operations and their order are those of the expressions
        # dh = sum(dh_out) + dh_next, dc = dh * o * (1 - tc * tc) + dc_next,
        # da_i = dc * g * i * (1 - i), da_f = dc * c_prev * f * (1 - f),
        # da_o = dh * tc * o * (1 - o) and da_c = dc * i * (1 - g * g)
        np.add(_sum_into(dh_out[t], levels.seq[t], dh), dh_next, out=dh)
        np.multiply(dh, o, out=dc)
        np.multiply(tc, tc, out=s)
        dc *= np.subtract(1.0, s, out=s)
        dc += dc_next
        c_prev = _take(cs[t - 1], parent, prev) if t > 0 else 0.0
        for d, u, v, w in ((da_i, dc, g, i), (da_f, dc, c_prev, f), (da_o, dh, tc, o)):
            np.multiply(u, v, out=d)
            d *= w
            d *= np.subtract(1.0, w, out=s)
        np.multiply(dc, i, out=da_c)
        np.multiply(g, g, out=s)
        da_c *= np.subtract(1.0, s, out=s)
        np.take(enc, levels.vertex[t], axis=1, out=x, mode="clip")
        grads.w_x += x @ da.T
        grads.b += da.sum(axis=1)
        dsums[t] = _sum_into(np.matmul(cell.w_x, da, out=x), levels.vertex[t], np.empty(enc.shape))
        if t > 0:
            grads.w_h += _take(hs[t - 1], parent, prev) @ da.T
            dh_next = _sum_into(np.matmul(cell.w_h, da, out=wh_da), parent, dh_sum)
            dc_next = _sum_into(np.multiply(dc, f, out=dc_f), parent, dc_sum)
    return dsums


def _bilstm_backward(dh2: np.ndarray, cache, p: EmbedParams, grads: EmbedParams) -> np.ndarray:
    """Both directions' backward passes; returns the (x, n + m) input
    gradient summed per vertex id, forward levels first, each direction's
    in level order: the argument of :func:`_encode_backward`."""
    cache_fw, cache_bw = cache
    dim = p.dim
    return sum(_cell_backward(dh2[:, :dim], cache_fw, p.fw, grads.fw)
               + _cell_backward(dh2[::-1, dim:], cache_bw, p.bw, grads.bw))


def _pool_backward(dpooled: np.ndarray, num: int, l: int, ws: Workspace) -> np.ndarray:
    """(G, 2w) -> (L, w, G*num), the gradient of :func:`_pool_batch`, a
    view of the states slot of ``ws``."""
    g, twow = dpooled.shape
    w = twow // 2
    dhbar = np.empty((l, w, g))
    dhbar[0] = dpooled[:, :w].T
    dhbar[1:] = dpooled[:, w:].T / (l - 1)
    out = ws.array("states", (l, w, g, num))
    out[...] = (dhbar / num)[..., None]  # each node's mean spread over its num sequences
    return out.reshape(l, w, g * num)
