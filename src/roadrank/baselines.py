"""Classic importance baselines: degree, betweenness, PageRank."""

from __future__ import annotations

import numpy as np

from .graph import RoadNetwork, ValidationError, flat_neighbours


def degree_centrality(net: RoadNetwork) -> np.ndarray:
    """In-degree plus out-degree per node, counting self-loops once."""
    return (np.diff(net.out_ptr) + np.diff(net.in_ptr)).astype(np.float64)


# Sources run together: each (sources x nodes) array of a block stays near
# 1 MB.
_BLOCK_ELEMENTS = 1 << 17


def betweenness_centrality(net: RoadNetwork) -> np.ndarray:
    """Brandes' accumulation over unweighted directed shortest paths.

    Endpoints are excluded; unreachable pairs contribute nothing.

    A block of sources runs as one level-synchronous BFS over flat
    ``(source, node)`` indices (Brandes 2001; batched as in Buluc and
    Gilbert 2011).  Every float sum is taken in the order of the one-source
    queue algorithm, so the result is the same bit for bit:

    - each level keeps its queue order, the unvisited targets of the
      previous level's out-edges in first-occurrence order, and
      ``sigma[w] += sigma[v]`` runs in that candidate order;
    - the backward pass goes deepest level first, each level reversed, and
      pulls from each ``w`` through its in-edges (the network's in-CSR) to
      every ``v`` one level up, which is the order Brandes' stack pops
      ``w``;
    - each source's dependencies are added to ``bc`` in source order.
    """
    n = net.n
    block = max(1, _BLOCK_ELEMENTS // n)
    bc = np.zeros(n)
    for lo in range(0, n, block):
        sources = np.arange(lo, min(lo + block, n))
        size = sources.size * n
        roots = np.arange(sources.size) * n + sources
        dist = np.full(size, -1)
        sigma = np.zeros(size)
        # each index's first position among its level's candidates, which
        # can outnumber the block's indices when targets repeat
        first = np.full(size, np.iinfo(np.intp).max)
        dist[roots] = 0
        sigma[roots] = 1.0
        levels = [roots]
        while True:
            frontier = levels[-1]
            at, _, w = flat_neighbours(frontier, n, net.out_ptr, net.out_idx)
            new = np.flatnonzero(dist[w] < 0)
            if not new.size:
                break
            w = w[new]
            np.add.at(sigma, w, sigma[frontier][at[new]])
            dist[w] = len(levels)
            order = np.arange(w.size)
            np.minimum.at(first, w, order)
            levels.append(w[first[w] == order])
        del first
        delta = np.zeros(size)
        while len(levels) > 1:
            d = len(levels) - 1
            frontier = levels.pop()[::-1]
            at, _, v = flat_neighbours(frontier, n, net.in_ptr, net.in_src)
            up = np.flatnonzero(dist[v] == d - 1)
            v, at = v[up], at[up]
            np.add.at(delta, v, sigma[v] / sigma[frontier][at] * (1.0 + delta[frontier])[at])
        delta[roots] = 0.0
        for row in delta.reshape(sources.size, n):
            bc += row
    return bc


def pagerank(net: RoadNetwork, damping: float = 0.85, tol: float = 1e-10,
             max_iter: int = 1000) -> np.ndarray:
    """Power iteration of the uniform out-edge walk with uniform teleport;
    converged when the l1 change drops below ``tol``."""
    if not 0.0 <= damping < 1.0:
        raise ValidationError(f"damping must be in [0, 1), got {damping}")
    n = net.n
    step = (1.0 / np.diff(net.out_ptr))[net.src]  # the share each edge carries
    p = np.full(n, 1.0 / n)
    teleport = (1.0 - damping) / n
    for _ in range(max_iter):
        nxt = damping * np.bincount(net.dst, weights=step * p[net.src], minlength=n) + teleport
        residual = np.abs(nxt - p).sum()
        p = nxt
        if residual < tol:
            return p
    raise ValidationError(
        f"pagerank did not converge in {max_iter} iterations (l1 residual {residual:.3e})"
    )
