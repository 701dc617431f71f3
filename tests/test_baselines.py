from collections import deque
from itertools import product

import numpy as np
import numpy.testing as npt
import pytest

from roadrank.baselines import betweenness_centrality, degree_centrality, pagerank
from roadrank.graph import RoadNetwork, ValidationError
from test_graph import edge_list, normalize_adjacency

ATTRS = ("a",)


def net_from_edges(n, edges):
    """Network over ``edges`` with a self-loop on each sink, as the loader adds."""
    sinks = sorted(set(range(n)) - {i for i, _ in edges})
    src, dst = np.array(list(edges) + [(i, i) for i in sinks], dtype=np.int64).T
    return RoadNetwork(n=n, m=1, src=src, dst=dst, A=np.ones((n, 1)), attr_names=ATTRS)


def brute_force_betweenness(net):
    """Enumerate every shortest path explicitly (exponential, n <= 12)."""
    n = net.n
    succ = [[] for _ in range(n)]
    for i, j in edge_list(net):
        succ[i].append(j)
    bc = np.zeros(n)
    for s, t in product(range(n), range(n)):
        if s == t:
            continue
        # BFS distances from s
        dist = {s: 0}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in succ[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        if t not in dist:
            continue
        # depth-first enumeration of all shortest s->t paths
        paths = []
        stack = [(s, [s])]
        while stack:
            v, path = stack.pop()
            if v == t:
                paths.append(path)
                continue
            for w in succ[v]:
                if w in dist and dist[w] == dist[v] + 1 and dist[w] <= dist[t]:
                    stack.append((w, path + [w]))
        for path in paths:
            for v in path[1:-1]:
                bc[v] += 1.0 / len(paths)
    return bc


def test_degree_star():
    net = net_from_edges(5, [(0, i) for i in range(1, 5)])
    deg = degree_centrality(net)
    assert deg[0] == 4
    # leaves carry their in-edge plus the self-loop added for out-degree
    npt.assert_array_equal(deg[1:], [2, 2, 2, 2])


def test_degree_two_cycle():
    net = net_from_edges(2, [(0, 1), (1, 0)])
    npt.assert_array_equal(degree_centrality(net), [2, 2])


def test_degree_self_loop_counts_once():
    net = net_from_edges(2, [(0, 0), (0, 1), (1, 0)])
    deg = degree_centrality(net)
    assert deg[0] == 3  # out 0->1, in 1->0, self-loop once


def test_degree_matches_edge_recount():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(2, 11))
        edges = {(int(i), int(j)) for i, j in rng.integers(0, n, size=(3 * n, 2))
                 if i != j}
        net = net_from_edges(n, sorted(edges))
        deg = degree_centrality(net)
        edges = edge_list(net)
        for v in range(n):
            expected = sum(1 for (i, j) in edges if i == v and j != v)
            expected += sum(1 for (i, j) in edges if j == v and i != v)
            expected += sum(1 for (i, j) in edges if i == j == v)
            assert deg[v] == expected


def test_betweenness_path():
    net = net_from_edges(3, [(0, 1), (1, 2)])
    bc = betweenness_centrality(net)
    npt.assert_allclose(bc, [0.0, 1.0, 0.0])


def test_betweenness_bidirectional_triangle():
    edges = [(i, j) for i in range(3) for j in range(3) if i != j]
    net = net_from_edges(3, edges)
    npt.assert_allclose(betweenness_centrality(net), np.zeros(3))


def test_betweenness_matches_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(2, 13))
        p = rng.uniform(0.15, 0.5)
        edges = [(i, j) for i in range(n) for j in range(n)
                 if i != j and rng.random() < p]
        net = net_from_edges(n, edges)
        npt.assert_allclose(betweenness_centrality(net), brute_force_betweenness(net),
                            atol=1e-9)


def test_pagerank_symmetric_cycles():
    two = net_from_edges(2, [(0, 1), (1, 0)])
    npt.assert_allclose(pagerank(two), [0.5, 0.5], atol=1e-9)
    three = net_from_edges(3, [(0, 1), (1, 2), (2, 0)])
    npt.assert_allclose(pagerank(three), np.full(3, 1 / 3), atol=1e-9)


def test_pagerank_fixed_point_residual():
    rng = np.random.default_rng(4)
    for _ in range(5):
        n = 8
        edges = [(i, j) for i in range(n) for j in range(n)
                 if i != j and rng.random() < 0.35]
        net = net_from_edges(n, edges)
        p = pagerank(net, damping=0.85, tol=1e-12)
        mbar = normalize_adjacency(net)
        residual = np.abs(p - (0.85 * mbar @ p + 0.15 / n)).sum()
        assert residual < 1e-9
        assert abs(p.sum() - 1.0) < 1e-9
        assert (p > 0).all()


def test_pagerank_nonconvergence_reports_residual():
    # the uniform start is far from the fixed point of this lopsided graph
    net = net_from_edges(4, [(0, 1), (1, 0), (2, 1), (3, 1)])
    with pytest.raises(ValidationError, match="residual"):
        pagerank(net, damping=0.99, tol=1e-15, max_iter=3)
