import codecs
import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roadrank
from roadrank.baselines import degree_centrality, pagerank
from roadrank.graph import (ValidationError, load_network, load_network_dir, normalized_views,
                            save_network)
from roadrank.synth import synth_grid_network
from roadrank.walks import node_step_distribution


def edge_list(net):
    return list(zip(net.src.tolist(), net.dst.tolist()))


def dense_adjacency(net):
    """Oracle: ``M[i, j] == 1`` iff the network has the edge ``i -> j``."""
    M = np.zeros((net.n, net.n))
    M[net.src, net.dst] = 1.0
    return M


def normalize_adjacency(net):
    """Oracle: column-stochastic transition matrix, ``mbar[j, i] =
    M[i, j] / out_degree(i)``."""
    M = dense_adjacency(net)
    return M.T / M.sum(axis=1)


def write_net(tmp_path, edge_lines, attr_lines):
    edges = tmp_path / "edges.csv"
    attrs = tmp_path / "attributes.csv"
    edges.write_text("src,dst\n" + "".join(line + "\n" for line in edge_lines))
    attrs.write_text("node_id,a,b\n" + "".join(line + "\n" for line in attr_lines))
    return edges, attrs


def random_network(rng, n, p=0.3, m=3, loops=False):
    """Random attributed digraph written through the loader (so invariants
    hold), used by the property-style checks; ``loops`` allows explicit
    self-loop edges."""
    import os
    import tempfile
    import warnings

    edge_lines = [f"{i},{j}" for i in range(n) for j in range(n)
                  if (loops or i != j) and rng.random() < p]
    attr_rows = rng.uniform(0.1, 9.0, size=(n, m))
    attrs_header = "node_id," + ",".join(f"a{k}" for k in range(m))
    d = tempfile.mkdtemp()
    ef = os.path.join(d, "e.csv")
    af = os.path.join(d, "a.csv")
    with open(ef, "w") as fh:
        fh.write("src,dst\n" + "".join(line + "\n" for line in edge_lines))
    with open(af, "w") as fh:
        fh.write(attrs_header + "\n")
        for i in range(n):
            fh.write(str(i) + "," + ",".join(repr(float(v)) for v in attr_rows[i]) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # sink patching is tested on its own
        return load_network(ef, af)


def test_minimal_two_node_graph(tmp_path):
    edges, attrs = write_net(tmp_path, ["0,1", "1,0"], ["0,1.0,2.0", "1,3.0,4.0"])
    net = load_network(edges, attrs)
    assert net.n == 2
    assert net.m == 2
    assert net.self_loop_nodes == ()
    assert set(edge_list(net)) == {(0, 1), (1, 0)}
    npt.assert_array_equal(net.A, [[1.0, 2.0], [3.0, 4.0]])


def test_sink_gets_self_loop(tmp_path):
    edges, attrs = write_net(tmp_path, ["0,1"], ["0,1,1", "1,1,1"])
    with pytest.warns(UserWarning, match="self-loops"):
        net = load_network(edges, attrs)
    assert net.self_loop_nodes == (1,)
    assert edge_list(net) == [(0, 1), (1, 1)]


@pytest.mark.parametrize("edge_lines,attr_lines,fragment", [
    (["0,1", "1,0"], ["0,1,1", "1,-2,1"], "negative attribute"),
    (["0,1", "1,0"], ["0,1,1", "0,2,2"], "duplicate node id"),
    (["0,5", "1,0"], ["0,1,1", "1,1,1"], "dangling edge"),
    (["0,1", "0,1", "1,0"], ["0,1,1", "1,1,1"], "duplicate edge"),
    (["0,1", "1,0"], ["0,1,1", "3,1,1"], "missing node row"),
    (["0,1", "1,0"], ["0,1,1", "1,0,0"], "no positive attribute"),
    (["0,1", "1,0"], ["0,1,1", "1,nan,1"], "non-finite attribute a=nan"),
    (["0,1", "1,0"], ["0,1,inf", "1,1,1"], "non-finite attribute b=inf"),
    (["0,1", "1,0"], ["0,1,1", "1,1,1e400"], "non-finite attribute b=inf"),
    (["0,1", "1,0"], ["0,-inf,1", "1,1,1"], "negative attribute a=-inf"),
    (["0,1", "1,0"], [], "no node rows after the header"),
])
def test_load_rejections(tmp_path, edge_lines, attr_lines, fragment):
    edges, attrs = write_net(tmp_path, edge_lines, attr_lines)
    with pytest.raises(ValidationError, match=fragment):
        load_network(edges, attrs)


def test_rejections_name_the_line(tmp_path):
    edges, attrs = write_net(tmp_path, ["0,1", "1,0"], ["0,1,1", "1,-2,1"])
    with pytest.raises(ValidationError, match=r":3:"):
        load_network(edges, attrs)  # offending attribute row is file line 3
    edges, attrs = write_net(tmp_path, ["0,1", "1,0"], ["0,1,1", "1,nan,1"])
    with pytest.raises(ValidationError, match=r"attributes.csv:3:"):
        load_network(edges, attrs)


def test_normalize_adjacency_column(tmp_path):
    edges, attrs = write_net(tmp_path, ["0,1", "0,2", "1,2", "2,0"],
                             ["0,1,1", "1,1,1", "2,1,1"])
    net = load_network(edges, attrs)
    mbar = normalize_adjacency(net)
    for i, col in enumerate([[0.0, 0.5, 0.5], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]):
        npt.assert_array_equal(mbar[:, i], col)
        npt.assert_array_equal(node_step_distribution(i, net), col)


def test_normalize_adjacency_self_loop_only(tmp_path):
    edges, attrs = write_net(tmp_path, ["0,1"], ["0,1,1", "1,1,1"])
    with pytest.warns(UserWarning):
        net = load_network(edges, attrs)
    assert normalize_adjacency(net)[1, 1] == 1.0
    npt.assert_array_equal(node_step_distribution(1, net), [0.0, 1.0])


def test_normalize_attributes_values(tmp_path):
    edges = tmp_path / "edges.csv"
    attrs = tmp_path / "attributes.csv"
    edges.write_text("src,dst\n0,1\n1,2\n2,0\n")
    attrs.write_text("node_id,k\n0,2\n1,3\n2,5\n")
    net = load_network(edges, attrs)
    abar = normalized_views(net)
    npt.assert_allclose(abar[0], [0.2, 0.3, 0.5])
    assert tuple(np.flatnonzero(~abar.any(axis=1))) == ()


def test_normalize_attributes_zero_row_flagged(tmp_path):
    edges = tmp_path / "edges.csv"
    attrs = tmp_path / "attributes.csv"
    edges.write_text("src,dst\n0,1\n1,0\n")
    attrs.write_text("node_id,k,z\n0,2,0\n1,3,0\n")
    net = load_network(edges, attrs)
    with pytest.warns(UserWarning, match="all-zero"):
        abar = normalized_views(net)
    assert tuple(np.flatnonzero(~abar.any(axis=1))) == (1,)
    npt.assert_array_equal(abar[1], [0.0, 0.0])
    npt.assert_allclose(abar[0], [0.4, 0.6])


def test_normalize_attributes_single_node(tmp_path):
    edges = tmp_path / "edges.csv"
    attrs = tmp_path / "attributes.csv"
    edges.write_text("src,dst\n0,0\n")
    attrs.write_text("node_id,k\n0,7\n")
    net = load_network(edges, attrs)
    abar = normalized_views(net)
    npt.assert_allclose(abar, [[1.0]])


def test_view_sums_on_random_graphs():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(2, 15))
        net = random_network(rng, n)
        abar = normalized_views(net)
        steps = np.array([node_step_distribution(i, net) for i in range(n)])
        npt.assert_allclose(steps.sum(axis=1), np.ones(n), atol=1e-12)
        row_sums = abar.sum(axis=1)
        for k, s in enumerate(row_sums):
            assert abs(s - 1.0) < 1e-12 or s == 0.0
        assert steps.min() >= 0.0 and steps.max() <= 1.0
        assert abar.min() >= 0.0 and abar.max() <= 1.0


def test_round_trip_identity(tmp_path):
    rng = np.random.default_rng(3)
    net = random_network(rng, 9)
    save_network(net, tmp_path / "out")
    net2 = load_network_dir(tmp_path / "out")
    npt.assert_array_equal(net2.src, net.src)
    npt.assert_array_equal(net2.dst, net.dst)
    npt.assert_array_equal(net2.A, net.A)
    assert net2.attr_names == net.attr_names


def test_round_trip_under_an_ascii_locale(tmp_path):
    """Outputs are UTF-8 with LF ends, as inputs are read, whatever the
    locale: a child process whose locale encoding is ASCII round-trips a
    network with a non-ASCII attribute name byte for byte."""
    src = tmp_path / "in"
    src.mkdir()
    files = {"edges.csv": "src,dst\n0,1\n1,0\n",
             "attributes.csv": "node_id,\u8f66\u9053,vol\n0,1.0,2.5\n1,3.0,4.0\n"}
    for name, text in files.items():
        (src / name).write_bytes(text.encode("utf-8"))
    code = ("import locale, sys\n"
            "from roadrank.graph import load_network_dir, save_network\n"
            "save_network(load_network_dir(sys.argv[1]), sys.argv[2])\n"
            "print(locale.getpreferredencoding(False))\n")
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
           "PYTHONPATH": os.pathsep.join([str(Path(roadrank.__file__).parents[1]),
                                          os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONIOENCODING", None)
    proc = subprocess.run([sys.executable, "-c", code, str(src), str(tmp_path / "out")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    if codecs.lookup(proc.stdout.strip()).name == "utf-8":
        pytest.skip("the C locale still reads as UTF-8 here")
    for name, text in files.items():
        assert (tmp_path / "out" / name).read_bytes() == text.encode("utf-8")


@given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_abar_scale_invariance(c):
    rng = np.random.default_rng(11)
    net = random_network(rng, 6)
    abar_before = normalized_views(net)
    A = net.A.copy()
    A[:, 1] *= c
    abar_after = normalized_views(dataclasses.replace(net, A=A))
    npt.assert_allclose(abar_after, abar_before, atol=1e-12)


def test_production_scale_format(tmp_path):
    # city-scale files: 929 nodes, 3168 edges, 16 attributes
    rng = np.random.default_rng(929)
    n, n_edges, m = 929, 3168, 16
    chosen = set()
    # ring guarantees out-degree >= 1, the rest are random extras
    for i in range(n):
        chosen.add((i, (i + 1) % n))
    while len(chosen) < n_edges:
        i, j = rng.integers(0, n, size=2)
        if i != j:
            chosen.add((int(i), int(j)))
    edges = tmp_path / "edges.csv"
    attrs = tmp_path / "attributes.csv"
    edges.write_text("src,dst\n" + "".join(f"{i},{j}\n" for i, j in sorted(chosen)))
    header = "node_id," + ",".join(f"a{k}" for k in range(m))
    rows = rng.uniform(0.5, 100.0, size=(n, m))
    attrs.write_text(header + "\n" + "".join(
        str(i) + "," + ",".join(f"{v:.3f}" for v in rows[i]) + "\n" for i in range(n)))
    net = load_network(edges, attrs)
    assert net.n == 929
    assert net.src.size == 3168
    assert net.m == 16



def test_sparse_core_matches_dense_oracle():
    """Bit for bit on random networks with sinks and explicit self-loops:
    the step distribution is the dense column, the in-CSR is the dense
    (dst, src) scan without self-loops, the out-CSR successors are the
    dense row's nonzeros, and the degree is the dense row plus column sum
    with each self-loop counted once."""
    rng = np.random.default_rng(8)
    sinks = loops = 0
    for _ in range(30):
        n = int(rng.integers(2, 15))
        net = random_network(rng, n, p=rng.uniform(0.05, 0.4), loops=True)
        dense = dense_adjacency(net)
        mbar = normalize_adjacency(net)
        for v in range(n):
            assert node_step_distribution(v, net).tobytes() == mbar[:, v].tobytes()
            npt.assert_array_equal(net.out_idx[net.out_ptr[v]:net.out_ptr[v + 1]],
                                   np.flatnonzero(dense[v]))
        dst, src = np.nonzero(dense.T)
        keep = src != dst
        got_dst = np.repeat(np.arange(n), np.diff(net.in_ptr))
        npt.assert_array_equal(net.in_src, src[keep])
        npt.assert_array_equal(got_dst, dst[keep])
        assert not (net.in_ptr.flags.writeable or net.in_src.flags.writeable)
        dense_degree = dense.sum(axis=1) + dense.sum(axis=0) - np.diag(dense)
        assert degree_centrality(net).tobytes() == dense_degree.tobytes()
        sinks += len(net.self_loop_nodes)
        loops += int((net.src == net.dst).sum()) - len(net.self_loop_nodes)
    assert sinks and loops


def test_graph_core_allocates_no_dense_matrix(tmp_path):
    """On a 60x60 grid (3,600 nodes, 14,160 edges) no graph-core stage
    comes near one n x n float64 array (99 MiB)."""
    peaks = {}

    def traced(name, fn, *args):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn(*args)
        peaks[name] = tracemalloc.get_traced_memory()[1] - before
        return out

    tracemalloc.start()
    try:
        net = traced("synth", synth_grid_network, 60, 60, 1)
        traced("save_network", save_network, net, tmp_path)
        net = traced("load_network_dir", load_network_dir, tmp_path)
        traced("normalized_views", normalized_views, net)
        traced("degree_centrality", degree_centrality, net)
        traced("pagerank", pagerank, net)
    finally:
        tracemalloc.stop()
    assert max(peaks.values()) < 8e6, peaks


def test_network_rejects_a_sink():
    net = synth_grid_network(2, 2, seed=0)
    with pytest.raises(ValidationError, match="node 3 has out-degree 0"):
        dataclasses.replace(net, src=net.src[net.src != 3], dst=net.dst[net.src != 3])
