import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadrank.graph import (ValidationError, load_network, load_network_dir,
                            normalize_adjacency, normalize_attributes,
                            normalized_views, save_network)


def write_net(tmp_path, edge_lines, attr_lines):
    edges = tmp_path / "edges.csv"
    attrs = tmp_path / "attributes.csv"
    edges.write_text("src,dst\n" + "".join(line + "\n" for line in edge_lines))
    attrs.write_text("node_id,a,b\n" + "".join(line + "\n" for line in attr_lines))
    return edges, attrs


def random_network(rng, n, p=0.3, m=3):
    """Random attributed digraph written through the loader (so invariants
    hold), used by the property-style checks."""
    import os
    import tempfile
    import warnings

    edge_lines = [f"{i},{j}" for i in range(n) for j in range(n)
                  if i != j and rng.random() < p]
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
    assert set(net.edges) == {(0, 1), (1, 0)}
    npt.assert_array_equal(net.A, [[1.0, 2.0], [3.0, 4.0]])


def test_sink_gets_self_loop(tmp_path):
    edges, attrs = write_net(tmp_path, ["0,1"], ["0,1,1", "1,1,1"])
    with pytest.warns(UserWarning, match="self-loops"):
        net = load_network(edges, attrs)
    assert net.self_loop_nodes == (1,)
    assert net.M[1, 1] == 1.0
    assert (1, 1) in net.edges


@pytest.mark.parametrize("edge_lines,attr_lines,fragment", [
    (["0,1", "1,0"], ["0,1,1", "1,-2,1"], "negative attribute"),
    (["0,1", "1,0"], ["0,1,1", "0,2,2"], "duplicate node id"),
    (["0,5", "1,0"], ["0,1,1", "1,1,1"], "dangling edge"),
    (["0,1", "0,1", "1,0"], ["0,1,1", "1,1,1"], "duplicate edge"),
    (["0,1", "1,0"], ["0,1,1", "3,1,1"], "missing node row"),
    (["0,1", "1,0"], ["0,1,1", "1,0,0"], "no positive attribute"),
])
def test_load_rejections(tmp_path, edge_lines, attr_lines, fragment):
    edges, attrs = write_net(tmp_path, edge_lines, attr_lines)
    with pytest.raises(ValidationError, match=fragment):
        load_network(edges, attrs)


def test_rejections_name_the_line(tmp_path):
    edges, attrs = write_net(tmp_path, ["0,1", "1,0"], ["0,1,1", "1,-2,1"])
    with pytest.raises(ValidationError, match=r":3:"):
        load_network(edges, attrs)  # offending attribute row is file line 3


def test_normalize_adjacency_column(tmp_path):
    edges, attrs = write_net(tmp_path, ["0,1", "0,2", "1,2", "2,0"],
                             ["0,1,1", "1,1,1", "2,1,1"])
    net = load_network(edges, attrs)
    mbar = normalize_adjacency(net)
    npt.assert_allclose(mbar[:, 0], [0.0, 0.5, 0.5])
    npt.assert_allclose(mbar[:, 1], [0.0, 0.0, 1.0])  # single out-edge
    npt.assert_allclose(mbar.sum(axis=0), np.ones(3), atol=1e-12)


def test_normalize_adjacency_self_loop_only(tmp_path):
    edges, attrs = write_net(tmp_path, ["0,1"], ["0,1,1", "1,1,1"])
    with pytest.warns(UserWarning):
        net = load_network(edges, attrs)
    mbar = normalize_adjacency(net)
    assert mbar[1, 1] == 1.0


def test_normalize_attributes_values(tmp_path):
    edges = tmp_path / "edges.csv"
    attrs = tmp_path / "attributes.csv"
    edges.write_text("src,dst\n0,1\n1,2\n2,0\n")
    attrs.write_text("node_id,k\n0,2\n1,3\n2,5\n")
    net = load_network(edges, attrs)
    abar, zero = normalize_attributes(net)
    npt.assert_allclose(abar[0], [0.2, 0.3, 0.5])
    assert zero == ()


def test_normalize_attributes_zero_row_flagged(tmp_path):
    edges = tmp_path / "edges.csv"
    attrs = tmp_path / "attributes.csv"
    edges.write_text("src,dst\n0,1\n1,0\n")
    attrs.write_text("node_id,k,z\n0,2,0\n1,3,0\n")
    net = load_network(edges, attrs)
    with pytest.warns(UserWarning, match="all-zero"):
        abar, zero = normalize_attributes(net)
    assert zero == (1,)
    npt.assert_array_equal(abar[1], [0.0, 0.0])
    npt.assert_allclose(abar[0], [0.4, 0.6])


def test_normalize_attributes_single_node(tmp_path):
    edges = tmp_path / "edges.csv"
    attrs = tmp_path / "attributes.csv"
    edges.write_text("src,dst\n0,0\n")
    attrs.write_text("node_id,k\n0,7\n")
    net = load_network(edges, attrs)
    abar, _ = normalize_attributes(net)
    npt.assert_allclose(abar, [[1.0]])


def test_view_sums_on_random_graphs():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(2, 15))
        net = random_network(rng, n)
        views = normalized_views(net)
        npt.assert_allclose(views.mbar.sum(axis=0), np.ones(n), atol=1e-12)
        row_sums = views.abar.sum(axis=1)
        for k, s in enumerate(row_sums):
            assert abs(s - 1.0) < 1e-12 or s == 0.0
        assert views.mbar.min() >= 0.0 and views.mbar.max() <= 1.0
        assert views.abar.min() >= 0.0 and views.abar.max() <= 1.0


def test_round_trip_identity(tmp_path):
    rng = np.random.default_rng(3)
    net = random_network(rng, 9)
    save_network(net, tmp_path / "out")
    net2 = load_network_dir(tmp_path / "out")
    assert net2.edges == net.edges
    npt.assert_array_equal(net2.A, net.A)
    assert net2.attr_names == net.attr_names


@given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_abar_scale_invariance(c):
    rng = np.random.default_rng(11)
    net = random_network(rng, 6)
    abar_before, _ = normalize_attributes(net)
    A = net.A.copy()
    A[:, 1] *= c
    from roadrank.graph import RoadNetwork
    scaled = RoadNetwork(n=net.n, m=net.m, edges=net.edges, M=net.M.copy(), A=A,
                         attr_names=net.attr_names)
    abar_after, _ = normalize_attributes(scaled)
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
    assert len(net.edges) == 3168
    assert net.m == 16

