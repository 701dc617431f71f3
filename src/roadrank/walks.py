"""Biased walk sampling over the fused adjacency + attribute-bridge graph.

Each step from a node flips a coin with bias ``alpha``: heads takes one
adjacency step; tails takes the two-step bridge node -> attribute -> node,
recording both the attribute vertex and the landing node.  Attribute
vertices share the id space ``n..n+m-1``.

Blocks of nodes advance all their walks together, one position at a time,
as arrays; each node keeps its own random stream and makes the same draws
from it as it would alone.  Adjacency steps read the network's CSR, the
attribute choice uses one m-outcome alias table per node (all of them built
in one stacked Vose pass), and bridge landings are drawn by rejection from
the attribute's support, so no table grows with n per (node, attribute).
Sample files are ``roadrank-samples v2``; :func:`load_samples` also reads v1
files, whose walks came from an earlier sampler with one stream per walk and
which ``sample`` does not reproduce.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

# alias_draw is not called here; perfbench/spans.py counts its calls under this module
from .alias import alias_draw, alias_lookup, build_alias  # noqa: F401
from .graph import RoadNetwork, ValidationError, open_output, open_text


@dataclass(frozen=True)
class WalkConfig:
    """Sampling settings: bias ``alpha`` in [0, 1], ``num`` sequences per
    node, sequence ``length`` >= 2, and the root ``seed``."""

    alpha: float
    num: int
    length: int
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValidationError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.num < 1:
            raise ValidationError("num must be >= 1")
        if self.length < 2:
            raise ValidationError("length must be >= 2")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")


@dataclass(frozen=True)
class SampleSet:
    """``sequences[i, w]`` is the w-th sampled vertex-id sequence for node
    ``i``; ids >= ``n`` denote attribute vertices."""

    sequences: np.ndarray
    n: int
    m: int
    config: WalkConfig

    def __post_init__(self):
        self.sequences.flags.writeable = False


def node_step_distribution(i: int, net: RoadNetwork) -> np.ndarray:
    """Adjacency-step distribution from node ``i``: uniform over its out-neighbours."""
    if not 0 <= i < net.n:
        raise ValidationError(f"node id {i} out of range")
    lo, hi = net.out_ptr[i], net.out_ptr[i + 1]
    p = np.zeros(net.n)
    p[net.out_idx[lo:hi]] = 1.0 / (hi - lo)
    return p


def node_to_attr_distribution(i: int, abar: np.ndarray) -> np.ndarray:
    """Relative contribution of each attribute to node ``i``, read from the
    attribute view ``abar`` (:func:`graph.normalized_views`)."""
    if not 0 <= i < abar.shape[1]:
        raise ValidationError(f"node id {i} out of range")
    col = abar[:, i]
    total = col.sum()
    if total <= 0:
        raise ValidationError(f"node {i} has no positive attribute mass")
    return col / total


def attr_to_node_distribution(i: int, k: int, abar: np.ndarray) -> np.ndarray:
    """Bridge-step distribution from attribute ``k`` given origin node ``i``.

    Nodes carrying attribute ``k`` are weighted by similarity to the
    origin, ``1 - |abar[k, j] - abar[k, i]|``, then renormalized; nodes
    with a zero share of the attribute get zero mass.  If the surviving
    weights all vanish (identical or maximally distant values) the
    distribution falls back to uniform over the support.
    """
    if not 0 <= k < abar.shape[0]:
        raise ValidationError(f"attribute id {k} out of range")
    row = abar[k]
    support = row != 0
    if not support.any():
        raise ValidationError(f"attribute {k} has empty support (all-zero row)")
    weights = np.where(support, 1.0 - np.abs(row - row[i]), 0.0)
    total = weights.sum()
    if total <= 0:
        weights = support.astype(np.float64)
        total = weights.sum()
    return weights / total


# nodes whose walks advance together: each keeps its own Generator (about
# 5.7 KB), and the block's arrays hold num walks per node
_NODE_BLOCK = 64


def _by_node(walks: np.ndarray, num: int, nodes: int):
    """``(b, lo, hi)`` for each node ``b`` of a block of ``nodes`` that owns
    some of the ascending walk indices ``walks``, node ``b`` owning walks
    ``b * num`` to ``b * num + num - 1``: its own are ``walks[lo:hi]``."""
    at = np.searchsorted(walks, np.arange(0, (nodes + 1) * num, num))
    busy = np.flatnonzero(at[1:] > at[:-1])
    return zip(busy.tolist(), at[busy].tolist(), at[busy + 1].tolist())


def sample_walks(net: RoadNetwork, abar: np.ndarray, cfg: WalkConfig) -> SampleSet:
    """Sample ``cfg.num`` sequences of ``cfg.length`` vertices per node.

    Every sequence starts at its own node; attribute visits consume a
    position, and a bridge cut off by the sequence end keeps its attribute.
    At each position every walk flips the ``alpha`` coin; the walks
    standing on a node step on heads to a uniform out-neighbour read from
    the CSR, and on tails draw an attribute from the node's alias table;
    the walks standing on an attribute land on a node with the law of
    :func:`attr_to_node_distribution`, by rejection: each proposes a node
    ``j`` uniformly from attribute ``k``'s support and accepts it with
    probability ``1 - |abar[k, j] - abar[k, origin]|``, and only the
    rejected walks propose again.  The weights are <= 1, so accepted draws
    follow the normalized weights exactly.  ``k`` is drawn only where
    ``abar[k, origin] > 0``, so the origin lies in the support with weight
    1 and every proposal round accepts with positive probability: the loop
    ends, and the uniform fallback of the law is never needed here.

    Blocks of ``_NODE_BLOCK`` nodes advance all their walks together, and
    the masks, steps and table lookups run once per block.  Node ``i``
    draws on its own stream ``SeedSequence((cfg.seed, i))``, as if it ran
    alone: per position, its coins, its heads' out-neighbour slots, its
    tails' alias slots and then their uniforms, then each landing round's
    proposals and uniforms, one call each.  So a node's walks do not depend
    on how many other nodes there are, in which order they run or how they
    are blocked.
    """
    n, num = net.n, cfg.num
    deg = np.diff(net.out_ptr)
    # every node's node_to_attr_distribution, row i for node i: a row sum of
    # the contiguous copy adds a node's shares as its column's own sum does
    shares = np.ascontiguousarray(abar.T)
    totals = shares.sum(axis=1)
    empty = np.flatnonzero(totals <= 0)
    if empty.size:
        raise ValidationError(f"node {int(empty[0])} has no positive attribute mass")
    table = build_alias(shares / totals[:, None])
    to_attr_prob, to_attr_alias = table.prob, table.alias
    # each attribute's support (the nonzeros of its abar row) as a CSR
    sup_k, sup_idx = np.nonzero(abar)
    sup_ptr = np.concatenate(([0], np.cumsum(np.bincount(sup_k, minlength=net.m))))
    out = np.empty((n, num, cfg.length), dtype=np.int64)
    for first in range(0, n, _NODE_BLOCK):
        nodes = range(first, min(first + _NODE_BLOCK, n))
        rngs = [np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, i))))
                for i in nodes]
        seqs = out[first:nodes.stop].reshape(-1, cfg.length)  # node b's walks are rows b*num..
        seqs[:, 0] = np.repeat(nodes, num)
        for p in range(1, cfg.length):
            prev = seqs[:, p - 1]
            on_node = prev < n
            heads = np.concatenate([rng.random(num) for rng in rngs]) < cfg.alpha
            step = np.flatnonzero(on_node & heads)
            bound = deg[prev[step]]
            hop = np.empty_like(step)
            for b, lo, hi in _by_node(step, num, len(rngs)):
                hop[lo:hi] = rngs[b].integers(0, bound[lo:hi])
            bridge = np.flatnonzero(on_node & ~heads)
            slot, u = np.empty_like(bridge), np.empty(bridge.size)
            for b, lo, hi in _by_node(bridge, num, len(rngs)):
                slot[lo:hi] = rngs[b].integers(net.m, size=hi - lo)
                u[lo:hi] = rngs[b].random(hi - lo)
            seqs[step, p] = net.out_idx[net.out_ptr[prev[step]] + hop]
            seqs[bridge, p] = n + alias_lookup(to_attr_prob, to_attr_alias, prev[bridge], slot, u)
            land = np.flatnonzero(~on_node)
            origin, k = seqs[land, p - 2], prev[land] - n
            while land.size:
                start = sup_ptr[k]
                size = sup_ptr[k + 1] - start
                pick, u = np.empty_like(land), np.empty(land.size)
                for b, a, z in _by_node(land, num, len(rngs)):
                    pick[a:z] = rngs[b].integers(0, size[a:z])
                    u[a:z] = rngs[b].random(z - a)
                j = sup_idx[start + pick]
                accept = u < 1.0 - np.abs(abar[k, j] - abar[k, origin])
                seqs[land[accept], p] = j[accept]
                land, origin, k = land[~accept], origin[~accept], k[~accept]
    return SampleSet(sequences=out, n=n, m=net.m, config=cfg)


_SAMPLES_MAGIC = "roadrank-samples v2"
# v1 files hold walks drawn by the per-walk-stream sampler; the layout is the same
_SAMPLES_MAGICS = ("roadrank-samples v1", _SAMPLES_MAGIC)
_SAMPLES_HEADER = (("n", int), ("m", int), ("num", int), ("l", int), ("alpha", float),
                   ("seed", int))
# sequence lines formatted per write: a few hundred kB of text, however many nodes
_WRITE_LINES = 4096


def _id_words(count: int) -> np.ndarray:
    """The text of vertex ids ``0..count-1`` and a space, row ``v`` for id
    ``v``: its digits right-aligned before the space in whole 8-byte words,
    NUL before them."""
    ids = np.arange(count)
    width = len(str(max(count - 1, 0)))
    text = np.zeros((count, (width + 8) // 8 * 8), np.uint8)
    text[:, -1] = ord(" ")
    for col in range(-2, -2 - width, -1):
        tens = ids // 10
        digit = (ids - tens * 10 + ord("0")).astype(np.uint8)
        text[:, col] = np.where((ids > 0) | (col == -2), digit, 0)
        ids = tens
    return text.view(np.uint64)


def save_samples(samples: SampleSet, path) -> None:
    """Write a sample set as versioned structured text: a header carrying
    (n, m, num, l, alpha, seed) then one line of vertex ids (each in
    ``0..n+m-1``) per sequence."""
    cfg = samples.config
    rows = samples.sequences.reshape(-1, cfg.length)
    header = {"n": samples.n, "m": samples.m, "num": cfg.num, "l": cfg.length,
              "alpha": cfg.alpha, "seed": cfg.seed}
    words = _id_words(samples.n + samples.m)
    with open_output(Path(path)) as fh:
        fh.write(_SAMPLES_MAGIC + "\n")
        for key, cast in _SAMPLES_HEADER:
            fh.write(f"{key} {cast(header[key])!r}\n")
        for lo in range(0, len(rows), _WRITE_LINES):
            # one row of bytes per line, each id's text and space, whose NULs are dropped
            text = words[rows[lo:lo + _WRITE_LINES]].view(np.uint8)
            text[:, -1, -1] = ord("\n")
            fh.write(text.tobytes().translate(None, b"\0").decode("ascii"))


def _read_sequence_lines(fh, path: Path, count: int, length: int, ids_below: int) -> np.ndarray:
    """Read ``count`` sequence lines one by one, naming the first bad line;
    the array is built only once every line has passed."""
    rows = []
    # sequence lines follow the magic line and the header lines
    for ln in range(len(_SAMPLES_HEADER) + 2, len(_SAMPLES_HEADER) + 2 + count):
        line = fh.readline()
        if not line:
            raise ValidationError(f"{path}:{ln}: truncated sample file")
        try:
            ids = [int(v) for v in line.split()]
        except ValueError:
            raise ValidationError(f"{path}:{ln}: non-integer vertex id") from None
        if len(ids) != length:
            raise ValidationError(f"{path}:{ln}: sequence of wrong length")
        if min(ids) < 0 or max(ids) >= ids_below:
            raise ValidationError(f"{path}:{ln}: vertex id out of range")
        rows.append(ids)
    return np.array(rows, dtype=np.int64).reshape(count, length)


def load_samples(path) -> SampleSet:
    """Read a sample set written by :func:`save_samples` (v1 or v2)."""
    path = Path(path)
    with open_text(path) as fh:
        magic = fh.readline().rstrip("\n")
        if magic not in _SAMPLES_MAGICS:
            raise ValidationError(f"{path}: unrecognized sample file header {magic!r}")
        header = {}
        for ln, (key, cast) in enumerate(_SAMPLES_HEADER, start=2):
            line = fh.readline().rstrip("\n")
            got, _, value = line.partition(" ")
            try:
                if got == key:
                    header[key] = cast(value)
                    continue
            except ValueError:
                pass
            raise ValidationError(
                f"{path}:{ln}: expected header line '{key} <value>', got {line!r}")
        line_of = {key: ln for ln, (key, _) in enumerate(_SAMPLES_HEADER, start=2)}
        n, m = header["n"], header["m"]
        for key in ("n", "m"):
            if header[key] < 0:
                raise ValidationError(f"{path}:{line_of[key]}: negative {key} in header")
        try:
            cfg = WalkConfig(alpha=header["alpha"], num=header["num"], length=header["l"],
                             seed=header["seed"])
        except ValidationError as exc:
            # WalkConfig's messages start with the field they reject; 'l' is length
            key = str(exc).split()[0].replace("length", "l")
            raise ValidationError(f"{path}:{line_of[key]}: header {exc}") from None
        count = n * cfg.num
        body = fh.tell()
        seqs = None
        with warnings.catch_warnings():
            # an all-blank body warns; the line loop below names its first line
            warnings.simplefilter("ignore", UserWarning)
            try:
                seqs = np.loadtxt(islice(iter(fh.readline, ""), count), dtype=np.int64,
                                  ndmin=2, comments=None)
            except ValueError:
                pass
        if (seqs is None or seqs.shape != (count, cfg.length)
                or seqs.min() < 0 or seqs.max() >= n + m):
            # loadtxt skips blank lines, and its errors name no file: parse
            # the body again line by line, which names the first bad line
            fh.seek(body)
            seqs = _read_sequence_lines(fh, path, count, cfg.length, n + m)
        for ln, line in enumerate(fh, start=len(_SAMPLES_HEADER) + 2 + count):
            if line.strip():
                raise ValidationError(f"{path}:{ln}: extra line after the last sequence")
    return SampleSet(sequences=seqs.reshape(n, cfg.num, cfg.length), n=n, m=m, config=cfg)
