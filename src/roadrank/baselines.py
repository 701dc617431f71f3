"""Classic importance baselines: degree, betweenness, PageRank."""

from __future__ import annotations

from collections import deque

import numpy as np

from .graph import RoadNetwork, ValidationError


def degree_centrality(net: RoadNetwork) -> np.ndarray:
    """In-degree plus out-degree per node, counting self-loops once."""
    ends = np.concatenate([net.src, net.dst[net.src != net.dst]])
    return np.bincount(ends, minlength=net.n).astype(np.float64)


def betweenness_centrality(net: RoadNetwork) -> np.ndarray:
    """Brandes' accumulation over unweighted directed shortest paths.

    Endpoints are excluded; unreachable pairs contribute nothing.
    """
    n = net.n
    succ = [s.tolist() for s in np.split(net.out_idx, net.out_ptr[1:-1])]
    # Python lists and floats: the same IEEE arithmetic as float64 scalars,
    # without numpy's per-element indexing cost
    bc = [0.0] * n
    for s in range(n):
        dist = [-1] * n
        sigma = [0.0] * n
        preds: list[list[int]] = [[] for _ in range(n)]
        dist[s] = 0
        sigma[s] = 1.0
        order: list[int] = []
        queue = deque([s])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in succ[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = [0.0] * n
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                bc[w] += delta[w]
    return np.array(bc)


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
