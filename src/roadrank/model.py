"""End-to-end pairwise scoring pipeline shared by training, evaluation,
and the CLI, including the three ablation variants."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import encoder
from .encoder import EmbedParams, minmax_scale_columns, vertex_features
from .graph import RoadNetwork, ValidationError
from .ranker import RankerParams, bce_loss, pair_backward, pair_forward
from .walks import SampleSet

NODE_CHUNK = 64  # nodes per forward-only encoder pass
RATING_ROWS = 64  # rows per block of the rating matrix


@dataclass(frozen=True)
class PipelineVariant:
    """What an ablation mode changes: the forced sampling bias (NoMG walks
    are plain random walks), whether sequences are encoded at all, and
    whether the recurrent layer runs."""

    name: str
    sample_alpha: float | None
    use_embedding: bool
    use_bilstm: bool


VARIANTS = {v.name: v for v in (
    PipelineVariant("full", None, True, True),
    PipelineVariant("NoMG", 1.0, True, True),
    PipelineVariant("NoBiLSTM", None, True, False),
    PipelineVariant("NoEmb", None, False, False),
)}
ABLATIONS = tuple(VARIANTS)


def apply_ablation(mode: str) -> PipelineVariant:
    """Resolve an ablation mode name to its pipeline variant."""
    if mode not in VARIANTS:
        raise ValidationError(f"unknown ablation mode {mode!r}; expected one of {ABLATIONS}")
    return VARIANTS[mode]


def named_tensors(embed: EmbedParams | None, ranker: RankerParams) -> dict[str, np.ndarray]:
    """Every parameter tensor under its checkpoint name; optimizers and
    gradient dicts use the same names.  ``embed`` may be None (NoEmb)."""
    out = {}
    if embed is not None:
        out.update({f"embed.{k}": v for k, v in embed.tensors().items()})
    out.update({f"ranker.{k}": v for k, v in ranker.tensors().items()})
    return out


def embedding_width(variant: PipelineVariant, m: int, x: int, dim: int) -> int:
    """Ranker branch input width for a variant."""
    if not variant.use_embedding:
        return m
    if not variant.use_bilstm:
        return 2 * x
    return 4 * dim


class PairScorer:
    """Forward and backward passes from sampled sequences (or raw
    attributes) through pooled embeddings to pairwise ratings.

    Parameters are referenced, not copied, so optimizer updates through
    ``tensors()`` are visible immediately.
    """

    def __init__(self, net: RoadNetwork, samples: SampleSet | None,
                 embed: EmbedParams | None, ranker: RankerParams,
                 variant: PipelineVariant):
        self.variant = variant
        self.embed = embed
        self.ranker = ranker
        self.n = net.n
        a_scaled = minmax_scale_columns(net.A)
        if variant.use_embedding:
            if embed is None:
                raise ValidationError(f"variant {variant.name} needs encoder parameters")
            if samples is None:
                raise ValidationError(f"variant {variant.name} needs sampled sequences")
            if embed.m != net.m:
                raise ValidationError(f"encoder expects m={embed.m}, network has m={net.m}")
            if samples.sequences.shape[0] != net.n:
                raise ValidationError("sample set does not cover the network's nodes")
            if samples.m != net.m:
                raise ValidationError(
                    f"samples were drawn with m={samples.m} attributes, network has m={net.m}")
            if variant.sample_alpha is not None and samples.config.alpha != variant.sample_alpha:
                raise ValidationError(
                    f"variant {variant.name} needs samples drawn with alpha="
                    f"{variant.sample_alpha}, got alpha={samples.config.alpha}")
            self.ids = samples.sequences
            self._index = None  # forward and backward PrefixIndex, built by the first indexed batch
            self._workspace = None  # the encoder's buffers, made by the first indexed batch
            self.feats = vertex_features(a_scaled)
            width = embedding_width(variant, net.m, embed.x, embed.dim)
        else:
            self.ids = None
            self.feats = None
            self.h0 = a_scaled
            width = net.m
        if ranker.input_dim != width:
            raise ValidationError(
                f"ranker input width {ranker.input_dim} does not match "
                f"embedding width {width} for variant {variant.name}"
            )
        self.width = width

    def tensors(self) -> dict[str, np.ndarray]:
        return named_tensors(self.embed if self.variant.use_embedding else None, self.ranker)

    # -- embeddings --------------------------------------------------------

    def node_embeddings(self, nodes: np.ndarray, with_cache: bool = False):
        """Pooled embeddings of ``nodes``, one row each.  With the cache
        (training) every node's sequences form one batch, whose LSTM steps
        run once per distinct prefix and suffix; without it the encoder runs
        over ``NODE_CHUNK`` nodes at a time, one column per sequence, so its
        arrays stay the same size however many nodes are embedded.  Both
        give the same bits.

        The first call with the cache gives the scorer an
        ``encoder.Workspace``, and from then on every call writes the
        encoder's arrays into it: training's batches and validation reuse
        one set of buffers.  A cache is therefore valid only until the next
        call; the embeddings themselves are fresh arrays."""
        nodes = np.asarray(nodes, dtype=np.int64)
        if not self.variant.use_embedding:
            return self.h0[nodes], None
        if with_cache:
            return self._encode(nodes, indexed=True)
        chunks = [self._encode(nodes[lo:lo + NODE_CHUNK], indexed=False)[0]
                  for lo in range(0, nodes.size, NODE_CHUNK)]
        return np.concatenate(chunks), None

    def _encode(self, nodes: np.ndarray, indexed: bool):
        """One encoder batch over every sequence of ``nodes``: the pooled
        embeddings and the cache their backward pass reads.  ``indexed``
        steps the LSTM over the sample set's distinct prefixes and suffixes,
        indexed at the first such call; otherwise over every sequence."""
        g = nodes.size
        _, num, l = self.ids.shape
        if indexed and self._workspace is None:
            self._workspace = encoder.Workspace(spare=0.25)
        flat_ids = self.ids[nodes].reshape(g * num, l)
        enc, enc_cache = encoder._encode_batch(flat_ids, self.feats, self.embed)
        if not self.variant.use_bilstm:
            h = enc[:, flat_ids.T].transpose(1, 0, 2)
            return encoder._pool_batch(h, num), (enc_cache, flat_ids, None, num, l)
        if indexed:
            if self._index is None:
                seqs = self.ids.reshape(-1, l)
                self._index = (encoder.PrefixIndex(seqs), encoder.PrefixIndex(seqs[:, ::-1]))
            rows = (nodes[:, None] * num + np.arange(num)).ravel()
            levels = (self._index[0].levels(flat_ids, rows),
                      self._index[1].levels(flat_ids[:, ::-1], rows))
        else:
            levels = (encoder.identity_levels(flat_ids), encoder.identity_levels(flat_ids[:, ::-1]))
        ws = self._workspace or encoder.Workspace()  # before any training batch: one per chunk
        h, lstm_cache = encoder._bilstm_batch(enc, levels, self.embed, ws)
        return encoder._pool_batch(h, num), (enc_cache, flat_ids, lstm_cache, num, l)

    def _embed_backward(self, dpooled: np.ndarray, cache, grads: EmbedParams):
        enc_cache, flat_ids, lstm_cache, num, l = cache
        dh = encoder._pool_backward(dpooled, num, l, self._workspace)
        if self.variant.use_bilstm:
            dsum = encoder._bilstm_backward(dh, lstm_cache, self.embed, grads)
        else:
            size = (dh.shape[1], self.feats.shape[0])  # (x, n + m)
            dsum = sum(encoder._sum_into(d, i, np.empty(size)) for i, d in zip(flat_ids.T, dh))
        encoder._encode_backward(dsum, enc_cache, self.embed, grads)

    # -- pairwise scoring ---------------------------------------------------

    def _locate(self, pi: np.ndarray, pj: np.ndarray):
        nodes = np.unique(np.concatenate([pi, pj]))
        return nodes, np.searchsorted(nodes, pi), np.searchsorted(nodes, pj)

    def rating_blocks(self, nodes):
        """The rating matrix over ``nodes`` in row blocks ``(lo, r)``:
        ``r[k, b]`` rates ``nodes[lo + k]`` over ``nodes[b]``, ``RATING_ROWS``
        rows each.  A node's rating of itself is meaningless and is zeroed.
        Each block is a fresh array, so its holder may overwrite it."""
        h, _ = self.node_embeddings(nodes)
        u, v, _ = pair_forward(h, self.ranker)
        b_out = self.ranker.b_out[0]
        for lo in range(0, u.size, RATING_ROWS):
            r = encoder.sigmoid(u[lo:lo + RATING_ROWS, None] + v[None, :] + b_out)
            np.fill_diagonal(r[:, lo:], 0.0)  # r[k, lo + k] = 0
            yield lo, r

    def rating_matrix(self, nodes) -> np.ndarray:
        """All-pairs rating matrix over ``nodes`` (zero diagonal): the tests' oracle."""
        return np.concatenate([r for _, r in self.rating_blocks(nodes)])

    def loss_and_grads(self, pi, pj, labels, dropout_rate: float = 0.0,
                       dropout_rng: np.random.Generator | None = None):
        """Mean BCE over a pair batch plus gradients for every tensor.

        Returns ``(loss, grads, ratings)`` with grads keyed like
        :meth:`tensors`.  Dropout (inverted scaling) applies to the pooled
        embeddings only when a rate and generator are given.
        """
        pi = np.asarray(pi, dtype=np.int64)
        pj = np.asarray(pj, dtype=np.int64)
        y = np.asarray(labels, dtype=np.float64)
        if pi.size == 0 or pi.shape != pj.shape or pi.shape != y.shape:
            raise ValidationError("pair batch arrays must be equal-length and non-empty")
        nodes, li, lj = self._locate(pi, pj)
        h, cache = self.node_embeddings(nodes, with_cache=True)

        mask = None
        if dropout_rate > 0.0:
            if dropout_rng is None:
                raise ValidationError("dropout needs a generator")
            mask = (dropout_rng.random(h.shape) >= dropout_rate) / (1.0 - dropout_rate)
            h = h * mask

        r = self.ranker
        u, v, rcache = pair_forward(h, r)
        ratings = encoder.sigmoid(u[li] + v[lj] + r.b_out[0])
        loss = bce_loss(ratings, y)

        rgrads = RankerParams.zeros(r.input_dim, r.b1.size, r.b2.size, r.rdim)
        dlogit = (ratings - y) / y.size
        du = np.bincount(li, weights=dlogit, minlength=nodes.size)
        dv = np.bincount(lj, weights=dlogit, minlength=nodes.size)
        dh = pair_backward(du, dv, rcache, r, rgrads)
        if mask is not None:
            dh = dh * mask

        egrads = None
        if self.variant.use_embedding:
            egrads = EmbedParams.zeros(self.embed.m, self.embed.x, self.embed.dim)
            self._embed_backward(dh, cache, egrads)
        return loss, named_tensors(egrads, rgrads), ratings
