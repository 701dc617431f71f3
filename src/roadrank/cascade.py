"""Ground-truth importance scores from simulated capacity failures.

A deterministic macroscopic surrogate: each segment carries a static
demand against a capacity proportional to lanes times speed limit.  When
a target segment's capacity is slashed, congestion spills back upstream
period by period; a segment fails the first period its speed drops below
a fraction of its limit, and the per-period failure counts are folded
into a single decayed score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import RoadNetwork, ValidationError, in_edges, read_node_table, write_node_table


@dataclass(frozen=True)
class CascadeConfig:
    """Failure-simulation knobs.

    ``capacity_reduction``: fraction of capacity the target keeps.
    ``failure_speed_fraction``: a segment fails when its speed drops
    strictly below this fraction of its limit.  ``gamma``/``periods`` set
    the decayed score; ``spillback_rate`` is the share of unmet demand
    pushed upstream each period.  ``kappa`` converts lanes x speed-limit
    into capacity and ``observation_window`` converts recorded volumes
    into demand.
    """

    capacity_reduction: float = 0.10
    failure_speed_fraction: float = 0.10
    gamma: float = 0.9
    periods: int = 10
    spillback_rate: float = 0.5
    kappa: float = 1.0
    observation_window: float = 1.0

    def __post_init__(self):
        for name in ("capacity_reduction", "failure_speed_fraction", "spillback_rate"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValidationError(f"{name} must be in (0, 1), got {v}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValidationError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.periods < 1:
            raise ValidationError("periods must be >= 1")
        if not (0.0 < self.kappa < math.inf and 0.0 < self.observation_window < math.inf):
            raise ValidationError("kappa and observation_window must be finite and > 0")


@dataclass(frozen=True)
class ImportanceScores:
    """Per-node ground-truth score with its provenance."""

    aff: np.ndarray
    gamma: float | None
    periods: int | None
    provenance: str

    def __post_init__(self):
        self.aff.flags.writeable = False
        if (self.aff < 0).any() or not np.isfinite(self.aff).all():
            raise ValidationError("importance scores must be finite and >= 0")


@dataclass(frozen=True)
class BaselineState:
    """Pre-failure per-segment capacity, demand, and resulting speed."""

    capacity: np.ndarray
    demand: np.ndarray
    speed: np.ndarray


def _congested_speed(limiv: np.ndarray, capacity: np.ndarray, demand: np.ndarray) -> np.ndarray:
    # free flow at or below capacity, degraded proportionally above it
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(demand > 0, capacity / np.where(demand > 0, demand, 1.0), np.inf)
    return limiv * np.minimum(1.0, ratio)


def assign_baseline_state(net: RoadNetwork, kappa: float = 1.0,
                          observation_window: float = 1.0) -> BaselineState:
    """Derive capacities, demands, and speeds from segment attributes.

    ``capacity = nlan * limiv * kappa`` and ``demand = vol / window``;
    requires the attributes limiv, nlan, len, and vol.
    """
    for name in ("limiv", "nlan", "len", "vol"):
        net.attr_index(name)
    limiv = net.A[:, net.attr_index("limiv")]
    nlan = net.A[:, net.attr_index("nlan")]
    vol = net.A[:, net.attr_index("vol")]
    capacity = nlan * limiv * kappa
    demand = vol / observation_window
    return BaselineState(capacity=capacity, demand=demand,
                         speed=_congested_speed(limiv, capacity, demand))


# Targets simulated together: each (targets x in-edges) float temporary of
# a block stays near 1 MB.
_BLOCK_ELEMENTS = 1 << 17


def _simulate_block(net: RoadNetwork, state: BaselineState, src: np.ndarray,
                    dst: np.ndarray, targets: np.ndarray, cfg: CascadeConfig) -> np.ndarray:
    """Failure counts per period, one row per target in ``targets``.

    Every target's cascade is independent, so the block runs them as rows
    of a (targets x n) demand matrix.  Per-segment sums go through
    ``np.bincount``, which adds in input order from 0.0; with edges sorted
    by (dst, src) that is the order of a plain loop over segments, so each
    row equals a one-target, one-segment-at-a-time simulation bit for bit.
    """
    n, b = net.n, targets.size
    limiv = net.A[:, net.attr_index("limiv")]
    threshold = cfg.failure_speed_fraction * limiv
    rows = np.arange(b)
    cap = np.tile(state.capacity, (b, 1))
    cap[rows, targets] *= cfg.capacity_reduction
    dem = np.tile(state.demand, (b, 1))
    offset = (rows * n)[:, None]
    by_dst = (offset + dst).ravel()
    by_src = (offset + src).ravel()
    uniform = 1.0 / np.bincount(dst)[dst]  # equal shares when upstream demand is 0
    failed = np.zeros((b, n), dtype=bool)
    counts = np.zeros((b, cfg.periods), dtype=np.int64)
    for t in range(cfg.periods):
        if t > 0:
            unmet = np.maximum(dem - cap, 0.0)
            ups = dem[:, src]
            total = np.bincount(by_dst, weights=ups.ravel(), minlength=b * n).reshape(b, n)[:, dst]
            positive = total > 0
            share = np.where(positive, ups / np.where(positive, total, 1.0), uniform)
            pushed = (cfg.spillback_rate * unmet[:, dst]) * share
            dem = dem + np.bincount(by_src, weights=pushed.ravel(), minlength=b * n).reshape(b, n)
        newly = (_congested_speed(limiv, cap, dem) < threshold) & ~failed
        counts[:, t] = newly.sum(axis=1)
        failed |= newly
    return counts


def cascade_failure(net: RoadNetwork, state: BaselineState, target: int,
                    cfg: CascadeConfig) -> np.ndarray:
    """Simulate the failure of ``target`` and count newly failed segments
    per period.

    Period 1 applies the capacity reduction.  From period 2 on, each
    congested segment pushes ``spillback_rate`` times its unmet demand to
    its upstream in-neighbors (self-loops excluded), split by their demand
    share (uniformly if all upstream demand is zero).  A segment is failed
    the first period its speed is strictly below
    ``failure_speed_fraction * limiv``; each segment counts once.
    """
    if not 0 <= target < net.n:
        raise ValidationError(f"unknown target id {target}")
    src, dst = in_edges(net)
    return _simulate_block(net, state, src, dst, np.array([target]), cfg)[0]


def importance_score(counts, gamma: float) -> float:
    """Decayed failure count: sum over periods t of gamma^t * n_t."""
    counts = np.asarray(counts, dtype=np.float64)
    if (counts < 0).any():
        raise ValidationError("failure counts must be >= 0")
    t = np.arange(1, counts.size + 1, dtype=np.float64)
    return float(np.sum(np.power(gamma, t) * counts))


def generate_ground_truth(net: RoadNetwork, cfg: CascadeConfig) -> ImportanceScores:
    """Score every node by simulating its failure once."""
    state = assign_baseline_state(net, kappa=cfg.kappa,
                                  observation_window=cfg.observation_window)
    src, dst = in_edges(net)
    block = max(1, _BLOCK_ELEMENTS // max(src.size, 1))
    aff = np.empty(net.n)
    for lo in range(0, net.n, block):
        targets = np.arange(lo, min(lo + block, net.n))
        for target, counts in zip(targets, _simulate_block(net, state, src, dst, targets, cfg)):
            aff[target] = importance_score(counts, cfg.gamma)
    return ImportanceScores(aff=aff, gamma=cfg.gamma, periods=cfg.periods,
                            provenance="simulated")


def save_scores(scores: ImportanceScores, path) -> None:
    write_node_table(path, ("aff",), scores.aff[:, None])


def import_scores(path, n: int | None = None) -> ImportanceScores:
    """Read externally produced scores from a node table (see
    :func:`roadrank.graph.read_node_table`) with header ``node_id,aff``.

    Ids must cover ``0..n-1`` exactly (``n`` defaults to the row count);
    scores must be finite and non-negative.
    """
    names, values, _ = read_node_table(path, "score", n)
    if names != ("aff",):
        raise ValidationError(f"{path}: expected header 'node_id,aff'")
    return ImportanceScores(aff=values[:, 0], gamma=None, periods=None, provenance="imported")
