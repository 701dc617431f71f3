import tracemalloc
from collections import deque
from itertools import product

import numpy as np
import numpy.testing as npt
import pytest

from roadrank import baselines
from roadrank.baselines import betweenness_centrality, degree_centrality, pagerank
from roadrank.graph import RoadNetwork, ValidationError
from roadrank.synth import synth_grid_network
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


def reference_betweenness(net):
    """Brandes' algorithm one source at a time, with a FIFO queue, predecessor
    lists and a stack: the order of every float sum that
    ``betweenness_centrality`` must reproduce bit for bit."""
    n = net.n
    succ = [s.tolist() for s in np.split(net.out_idx, net.out_ptr[1:-1])]
    bc = [0.0] * n
    for s in range(n):
        dist = [-1] * n
        sigma = [0.0] * n
        preds = [[] for _ in range(n)]
        dist[s] = 0
        sigma[s] = 1.0
        order = []
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


def random_edges(rng, n):
    """Sparse random digraph with explicit self-loops, sinks (patched with a
    self-loop by ``net_from_edges``), unreachable pairs and a hub that
    about half the nodes point to."""
    p = rng.uniform(0.05, 0.3)
    edges = {(i, j) for i in range(n) for j in range(n) if rng.random() < p}
    hub = int(rng.integers(n))
    edges |= {(i, hub) for i in range(n) if i != hub and rng.random() < 0.5}
    return sorted(edges)


def layered_net(rng, width, depth):
    """A source over ``depth`` layers of ``width`` nodes, each node fed by a
    random non-empty subset of the layer above, under shuffled ids so that
    queue order is not id order.  Also returns the largest exact number of
    shortest paths from the source to one node."""
    layers = [[0]] + [list(range(1 + k * width, 1 + (k + 1) * width)) for k in range(depth)]
    paths = {0: 1}
    edges = []
    for upper, lower in zip(layers, layers[1:]):
        for w in lower:
            parents = [v for v in upper if rng.random() < 0.6] or [upper[0]]
            paths[w] = sum(paths[v] for v in parents)
            edges += [(v, w) for v in parents]
    label = rng.permutation(len(paths))
    net = net_from_edges(len(paths), [(int(label[v]), int(label[w])) for v, w in edges])
    return net, max(paths.values())


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


def test_betweenness_matches_reference_on_random_networks():
    rng = np.random.default_rng(23)
    loops = hubs = 0
    for _ in range(40):
        n = int(rng.integers(2, 30))
        net = net_from_edges(n, random_edges(rng, n))
        assert betweenness_centrality(net).tobytes() == reference_betweenness(net).tobytes()
        loops += int((net.src == net.dst).sum())
        hubs += int(np.bincount(net.dst).max() > n // 2)
    assert loops and hubs


@pytest.mark.parametrize("per_block", [1, 3, 6, 40])
def test_betweenness_blocks_of_sources(monkeypatch, per_block):
    """One source per block, several (31 is no multiple of 3 or 6) and
    more sources than nodes all give the reference's bytes."""
    rng = np.random.default_rng(per_block)
    n = 31
    net = net_from_edges(n, random_edges(rng, n))
    monkeypatch.setattr(baselines, "_BLOCK_ELEMENTS", per_block * n)
    assert betweenness_centrality(net).tobytes() == reference_betweenness(net).tobytes()


def test_betweenness_matches_reference_on_a_grid():
    net = synth_grid_network(24, 24, seed=1)
    assert betweenness_centrality(net).tobytes() == reference_betweenness(net).tobytes()


def test_betweenness_path_counts_past_two_to_the_53():
    """Past 2**53 the float path counts round, so the result depends on the
    order of every ``sigma`` sum."""
    net, most_paths = layered_net(np.random.default_rng(5), width=7, depth=40)
    assert most_paths > 2 ** 53
    assert betweenness_centrality(net).tobytes() == reference_betweenness(net).tobytes()


def test_betweenness_working_set_is_one_block():
    """On a 40x40 grid (1,600 nodes) the peak stays near one block's few
    (sources x nodes) arrays: far from one n x n float64 array (20 MB) or
    a stored shortest-path DAG."""
    net = synth_grid_network(40, 40, seed=1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        betweenness_centrality(net)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


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
