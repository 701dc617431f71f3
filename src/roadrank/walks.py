"""Biased walk sampling over the fused adjacency + attribute-bridge graph.

Each step from a node flips a coin with bias ``alpha``: heads takes one
adjacency step; tails takes the two-step bridge node -> attribute -> node,
recording both the attribute vertex and the landing node.  Attribute
vertices share the id space ``n..n+m-1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .alias import AliasTable, alias_draw, build_alias
from .graph import NormalizedViews, RoadNetwork, ValidationError


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


def node_step_distribution(i: int, views: NormalizedViews) -> np.ndarray:
    """Adjacency-step distribution from node ``i``: uniform over its out-neighbours."""
    if not 0 <= i < views.n:
        raise ValidationError(f"node id {i} out of range")
    lo, hi = views.out_ptr[i], views.out_ptr[i + 1]
    p = np.zeros(views.n)
    p[views.out_idx[lo:hi]] = 1.0 / (hi - lo)
    return p


def node_to_attr_distribution(i: int, views: NormalizedViews) -> np.ndarray:
    """Relative contribution of each attribute to node ``i``."""
    if not 0 <= i < views.n:
        raise ValidationError(f"node id {i} out of range")
    col = views.abar[:, i]
    total = col.sum()
    if total <= 0:
        raise ValidationError(f"node {i} has no positive attribute mass")
    return col / total


def attr_to_node_distribution(i: int, k: int, views: NormalizedViews) -> np.ndarray:
    """Bridge-step distribution from attribute ``k`` given origin node ``i``.

    Nodes carrying attribute ``k`` are weighted by similarity to the
    origin, ``1 - |abar[k, j] - abar[k, i]|``, then renormalized; nodes
    with a zero share of the attribute get zero mass.  If the surviving
    weights all vanish (identical or maximally distant values) the
    distribution falls back to uniform over the support.
    """
    if not 0 <= k < views.m:
        raise ValidationError(f"attribute id {k} out of range")
    row = views.abar[k]
    support = row != 0
    if not support.any():
        raise ValidationError(f"attribute {k} has empty support (all-zero row)")
    weights = np.where(support, 1.0 - np.abs(row - row[i]), 0.0)
    total = weights.sum()
    if total <= 0:
        weights = support.astype(np.float64)
        total = weights.sum()
    return weights / total


class _AliasCache:
    """Lazily built alias tables over immutable views.

    Keyed per origin node for adjacency and node->attribute steps, and per
    (origin, attribute) for bridge landings; the fused transition matrix is
    never materialized.
    """

    def __init__(self, views: NormalizedViews):
        self.views = views
        self._adj: dict[int, AliasTable] = {}
        self._to_attr: dict[int, AliasTable] = {}
        self._to_node: dict[tuple[int, int], AliasTable] = {}

    def adjacency(self, i: int) -> AliasTable:
        t = self._adj.get(i)
        if t is None:
            t = self._adj[i] = build_alias(node_step_distribution(i, self.views))
        return t

    def to_attr(self, i: int) -> AliasTable:
        t = self._to_attr.get(i)
        if t is None:
            t = self._to_attr[i] = build_alias(node_to_attr_distribution(i, self.views))
        return t

    def to_node(self, i: int, k: int) -> AliasTable:
        t = self._to_node.get((i, k))
        if t is None:
            t = self._to_node[(i, k)] = build_alias(attr_to_node_distribution(i, k, self.views))
        return t


def _walk_rng(seed: int, node: int, walk: int) -> np.random.Generator:
    # one independent stream per (node, sequence index) so results do not
    # depend on scheduling order
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, node, walk))))


def _walk(start: int, cache: _AliasCache, cfg: WalkConfig, n: int,
          rng: np.random.Generator) -> list[int]:
    seq = [start]
    cur = start
    while len(seq) < cfg.length:
        if rng.random() < cfg.alpha:
            cur = alias_draw(cache.adjacency(cur), rng)
            seq.append(cur)
        else:
            k = alias_draw(cache.to_attr(cur), rng)
            seq.append(n + k)
            if len(seq) == cfg.length:
                break  # truncate mid-bridge
            cur = alias_draw(cache.to_node(cur, k), rng)
            seq.append(cur)
    return seq


def sample_walks(net: RoadNetwork, views: NormalizedViews, cfg: WalkConfig) -> SampleSet:
    """Sample ``cfg.num`` sequences of ``cfg.length`` vertices per node.

    Every sequence starts at its own node; attribute visits consume a
    position; sampling is deterministic given ``cfg.seed``.
    """
    cache = _AliasCache(views)
    out = np.empty((net.n, cfg.num, cfg.length), dtype=np.int64)
    for i in range(net.n):
        for w in range(cfg.num):
            out[i, w] = _walk(i, cache, cfg, net.n, _walk_rng(cfg.seed, i, w))
    return SampleSet(sequences=out, n=net.n, m=net.m, config=cfg)


_SAMPLES_MAGIC = "roadrank-samples v1"
_SAMPLES_HEADER = (("n", int), ("m", int), ("num", int), ("l", int), ("alpha", float),
                   ("seed", int))


def save_samples(samples: SampleSet, path) -> None:
    """Write a sample set as versioned structured text: a header carrying
    (n, m, num, l, alpha, seed) then one line of vertex ids per sequence."""
    cfg = samples.config
    with open(Path(path), "w") as fh:
        fh.write(_SAMPLES_MAGIC + "\n")
        fh.write(f"n {samples.n}\n")
        fh.write(f"m {samples.m}\n")
        fh.write(f"num {cfg.num}\n")
        fh.write(f"l {cfg.length}\n")
        fh.write(f"alpha {cfg.alpha!r}\n")
        fh.write(f"seed {cfg.seed}\n")
        for i in range(samples.n):
            for w in range(cfg.num):
                fh.write(" ".join(str(v) for v in samples.sequences[i, w]) + "\n")


def load_samples(path) -> SampleSet:
    """Read a sample set written by :func:`save_samples`."""
    path = Path(path)
    with open(path) as fh:
        magic = fh.readline().rstrip("\n")
        if magic != _SAMPLES_MAGIC:
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
        seqs = np.empty((n * cfg.num, cfg.length), dtype=np.int64)
        # sequence lines follow the magic line and the header lines
        for ln, row in enumerate(seqs, start=len(_SAMPLES_HEADER) + 2):
            line = fh.readline()
            if not line:
                raise ValidationError(f"{path}:{ln}: truncated sample file")
            try:
                ids = [int(v) for v in line.split()]
            except ValueError:
                raise ValidationError(f"{path}:{ln}: non-integer vertex id") from None
            if len(ids) != cfg.length:
                raise ValidationError(f"{path}:{ln}: sequence of wrong length")
            row[:] = ids
    if seqs.size and (seqs.min() < 0 or seqs.max() >= n + m):
        raise ValidationError(f"{path}: vertex id out of range")
    return SampleSet(sequences=seqs.reshape(n, cfg.num, cfg.length), n=n, m=m, config=cfg)
