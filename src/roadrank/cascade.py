"""Ground-truth importance scores from simulated capacity failures.

A deterministic macroscopic surrogate: each segment carries a static
demand against a capacity proportional to lanes times speed limit.  When
a target segment's capacity is slashed, congestion spills back upstream
period by period; a segment fails the first period its speed drops below
a fraction of its limit, and the per-period failure counts are folded
into a single decayed score.

The network is simulated once with no failure (the free run); each
target's run is then the free run repaired only where the target's
change has spread, which gives the same counts bit for bit as simulating
the whole network per target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import (RoadNetwork, ValidationError, flat_neighbours, read_node_table,
                    write_node_table)


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


# Targets repaired together: a block has at most this many (target, in-edge)
# pairs and (target, segment) cells, so each flat table and temporary of a
# block stays near 1 MB even where a target's change set covers the whole
# network.
_BLOCK_ELEMENTS = 1 << 17


class _LocalCascade:
    """The target-free trajectory of one network, and exact per-target
    repairs of it.

    A target's run differs from the free run only where its reduced
    capacity has spread, so a block of targets carries, from period to
    period, only the flat ``row * n + segment`` cells whose demand differs
    from the free run (D) and those whose failed state differs (F).  In
    each period it recomputes the pushes into D, the targets and the
    segments downstream of D, skipping those congested in neither run
    (both push exactly 0.0), and the demand of D and of every segment
    upstream of a recomputed one.  Every sum adds the same float64 terms
    in the same order as the free run: a segment's upstream demand over
    its in-edges in (dst, src) order, a segment's pushes received over its
    out-edges in ascending dst order, each starting from 0.0 as
    ``np.bincount`` does.  The cell sets themselves are in no particular
    order.  Every other cell holds the free run's bits, so each target's
    counts equal a whole-network simulation of it exactly.
    """

    def __init__(self, net: RoadNetwork, cfg: CascadeConfig):
        self.n, self.cfg = net.n, cfg
        state = assign_baseline_state(net, cfg.kappa, cfg.observation_window)
        self.limiv = net.A[:, net.attr_index("limiv")]
        self.threshold = cfg.failure_speed_fraction * self.limiv
        self.cap = state.capacity
        src = self.src = net.in_src
        self.in_ptr = net.in_ptr
        dst = np.repeat(np.arange(net.n), np.diff(net.in_ptr))  # each in-edge's segment
        self.uniform = 1.0 / np.diff(net.in_ptr)[dst]  # equal shares when upstream demand is 0
        # the same edges by (src, dst): each segment's out-edges, ascending dst
        self.out_edge = np.argsort(src, kind="stable")
        self.out_dst = dst[self.out_edge]
        self.out_deg = np.bincount(src, minlength=net.n)
        self.out_ptr = np.concatenate(([0], np.cumsum(self.out_deg)))
        self.out_rank = np.empty_like(self.out_edge)  # each edge's place among its src's
        self.out_rank[self.out_edge] = np.arange(src.size) - self.out_ptr[src[self.out_edge]]
        self._free_run(state.demand, dst)

    def _free_run(self, dem: np.ndarray, dst: np.ndarray) -> None:
        n, cfg, src = self.n, self.cfg, self.src
        self.dem = np.empty((cfg.periods, n))
        self.push = np.zeros((cfg.periods, src.size))  # row 0 is unused
        self.congested = np.empty((cfg.periods, n), dtype=bool)
        self.newly = np.empty((cfg.periods, n), dtype=bool)
        self.failed = np.zeros((cfg.periods + 1, n), dtype=bool)  # before each period
        for t in range(cfg.periods):
            if t > 0:
                unmet = np.maximum(dem - self.cap, 0.0)
                self.push[t] = self._push(dst, dem[src], self.uniform, unmet)
                dem = dem + np.bincount(src, weights=self.push[t], minlength=n)
            self.dem[t] = dem
            self.congested[t] = dem > self.cap
            below = _congested_speed(self.limiv, self.cap, dem) < self.threshold
            self.newly[t] = below & ~self.failed[t]
            self.failed[t + 1] = self.failed[t] | self.newly[t]

    def _push(self, at, ups, uniform, unmet) -> np.ndarray:
        """Each in-edge's push: ``spillback_rate`` times its segment's unmet
        demand, shared by the upstream demands ``ups`` (by ``uniform`` where
        they total 0).  Both runs push through here, so they round alike."""
        total = np.bincount(at, weights=ups)[at]
        positive = total > 0
        share = np.where(positive, ups / np.where(positive, total, 1.0), uniform)
        return (self.cfg.spillback_rate * unmet[at]) * share

    def counts(self, targets: np.ndarray) -> np.ndarray:
        """Failure counts per period, one row per target in ``targets``."""
        n, cfg, src = self.n, self.cfg, self.src
        b = targets.size
        tkeys = np.arange(b) * n + targets
        # tables over the block's flat cells; a cell's ``dem`` entry holds
        # its demand while the cell is in D
        cap = np.tile(self.cap, b)
        cap[tkeys] *= cfg.capacity_reduction
        dem = np.empty(b * n)
        in_d = np.zeros(b * n, dtype=bool)
        in_f = np.zeros(b * n, dtype=bool)
        seen = np.empty(b * n, dtype=np.intp)

        def unique(keys):  # each key once
            order = np.arange(keys.size)
            seen[keys] = order
            return keys[np.flatnonzero(seen[keys] == order)]

        def demand(keys, seg, free):
            return np.where(in_d[keys], dem[keys], free[seg])

        counts = np.tile(self.newly.sum(axis=1), (b, 1))
        d = f = d_out = np.empty(0, dtype=np.intp)
        for t in range(cfg.periods):
            if t > 0:
                prev = self.dem[t - 1]
                # pushes into D, the targets and D's out-neighbours, where
                # congested in either run
                c = unique(np.concatenate([d, tkeys, d_out]))
                seg = c - c // n * n
                unmet = np.maximum(demand(c, seg, prev) - cap[c], 0.0)
                keep = np.flatnonzero((unmet > 0) | self.congested[t - 1][seg])
                c, unmet = c[keep], unmet[keep]
                at, e, up = flat_neighbours(c, n, self.in_ptr, src)
                pushed = self._push(at, demand(up, src[e], prev), self.uniform[e], unmet)
                # the demand of D and of the cells upstream of those pushes:
                # the free run's pushes over each cell's out-edges, with the
                # recomputed ones put in at their edges' places
                u = unique(np.concatenate([d, up]))
                seg = u - u // n * n
                at, j, down = flat_neighbours(u, n, self.out_ptr, self.out_dst)
                received = self.push[t][self.out_edge[j]]
                seen[u] = np.arange(u.size)
                deg = self.out_deg[seg]
                received[(np.cumsum(deg) - deg)[seen[up]] + self.out_rank[e]] = pushed
                new = demand(u, seg, prev) + np.bincount(at, weights=received, minlength=u.size)
                moved = new != self.dem[t][seg]
                in_d[d] = False
                keep = np.flatnonzero(moved)
                d = u[keep]
                in_d[d] = True
                dem[d] = new[keep]
                # D's out-neighbours matter only where the free run is
                # congested: any other is in D, a target, or congested in
                # neither run
                d_out = down[np.flatnonzero(moved[at] & self.congested[t][self.out_dst[j]])]
            q = unique(np.concatenate([d, tkeys, f]))
            row = q // n
            seg = q - row * n
            before = self.failed[t][seg] ^ in_f[q]
            speed = _congested_speed(self.limiv[seg], cap[q], demand(q, seg, self.dem[t]))
            newly = (speed < self.threshold[seg]) & ~before
            counts[:, t] += (np.bincount(row[newly], minlength=b)
                             - np.bincount(row[self.newly[t][seg]], minlength=b))
            in_f[f] = False
            f = q[np.flatnonzero((before | newly) != self.failed[t + 1][seg])]
            in_f[f] = True
        return counts


def cascade_failure(net: RoadNetwork, target: int, cfg: CascadeConfig) -> np.ndarray:
    """Simulate the failure of ``target`` and count newly failed segments
    per period.

    Period 1 applies the capacity reduction.  From period 2 on, each
    congested segment pushes ``spillback_rate`` times its unmet demand to
    its upstream in-neighbors (self-loops excluded), split by their demand
    share (uniformly if all upstream demand is zero).  A segment is failed
    the first period its speed is strictly below
    ``failure_speed_fraction * limiv``; each segment counts once.  Every
    input comes from ``cfg``, through :func:`assign_baseline_state`.
    """
    if not 0 <= target < net.n:
        raise ValidationError(f"unknown target id {target}")
    return _LocalCascade(net, cfg).counts(np.array([target]))[0]


def importance_score(counts, gamma: float):
    """Decayed failure count: sum over periods t of gamma^t * n_t.

    The periods run along the last axis of ``counts``: one count per period
    gives a float, and one row per target gives one score per row.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if (counts < 0).any():
        raise ValidationError("failure counts must be >= 0")
    t = np.arange(1, counts.shape[-1] + 1, dtype=np.float64)
    scores = np.sum(np.power(gamma, t) * counts, axis=-1)
    return float(scores) if scores.ndim == 0 else scores


def generate_ground_truth(net: RoadNetwork, cfg: CascadeConfig) -> ImportanceScores:
    """Score every node by simulating its failure once."""
    cascade = _LocalCascade(net, cfg)
    block = max(1, _BLOCK_ELEMENTS // max(cascade.src.size, net.n))
    aff = np.empty(net.n)
    for lo in range(0, net.n, block):
        targets = np.arange(lo, min(lo + block, net.n))
        aff[targets] = importance_score(cascade.counts(targets), cfg.gamma)
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
