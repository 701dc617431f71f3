import codecs
import dataclasses
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roadrank
from roadrank import graph
from roadrank.baselines import degree_centrality, pagerank
from roadrank.graph import (RoadNetwork, ValidationError, load_network, load_network_dir,
                            normalized_views, save_network)
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


# a quoted node id spanning lines 2 and 3, so the next record starts on line 4
SPLIT_RECORD = 'node_id,a\n"0\n",1\n'


@pytest.mark.parametrize("rows, message", [
    ("1,x\n", "attributes.csv:4: non-numeric attribute value"),
    ("1,1\n1,2\n", r"attributes.csv:5: duplicate node id 1 \(first at line 4\)"),
    ("\n1,-1\n", "attributes.csv:5: negative attribute a=-1.0 for node 1"),
])
def test_node_table_rows_are_named_by_the_line_they_start_on(tmp_path, rows, message):
    attrs = tmp_path / "attributes.csv"
    attrs.write_text(SPLIT_RECORD + rows)
    with pytest.raises(ValidationError, match=message):
        graph.read_node_table(attrs, "attribute")


@pytest.mark.parametrize("rows, message", [
    ('"0\n\n",1\n1,x\n', "edges.csv:5: non-integer endpoint"),
    ('1,"0\n"\n1,0\n', r"edges.csv:4: duplicate edge 1->0 \(first at line 2\)"),
    ('"0\n",1\n1,0\n1,0\n', r"edges.csv:5: duplicate edge 1->0 \(first at line 4\)"),
])
def test_edge_rows_are_named_by_the_line_they_start_on(tmp_path, rows, message):
    edges, attrs = write_net(tmp_path, [], ["0,1,1", "1,1,1"])
    edges.write_text("src,dst\n" + rows)
    with pytest.raises(ValidationError, match=message):
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


# tokens put in place of a node id or an edge endpoint: forms int() takes
# (a sign, leading zeros, an underscore, a non-ASCII digit) and forms it does not
ID_TOKENS = ("+{v}", "00{v}", "{v}_0", "{v}e0", "{v}.0", "-{v}", "", "9" * 25, "٣",
             " {v} ", '"{v}"', "{v}\t")
# tokens put in place of an attribute value: forms float() takes and forms it does not
VALUE_TOKENS = ("nan", "inf", "-inf", "1e999", "-0.0", "1" * 30, "0." + "1" * 400, "1_0",
                "+1.5", ".5", "5.", "1e-400", "4.9e-324", "0x10", "Infinity", "1e", "", "1.0.0",
                " 2.5", '"3"')
PERTURBATIONS = ("none", "crlf", "no_final_newline", "non_utf8", "shuffle", "blank", "spaces",
                 "id", "value", "name", "duplicate_edge", "dangling_edge", "sink")


def perturb(edges: list[str], attrs: list[str], n: int, op: str, data) -> None:
    """Apply one file perturbation ``op`` to the lines (without ends) of the
    edge and attribute files; byte-level ones are left to :func:`join_lines`."""
    which = data.draw(st.sampled_from([edges, attrs]))
    i = data.draw(st.integers(0, len(which) - 1))
    if op == "shuffle":
        body = which[1:]
        which[1:] = data.draw(st.permutations(body))
    elif op == "blank":
        which.insert(data.draw(st.integers(0, len(which))), data.draw(st.sampled_from(["", ","])))
    elif op == "spaces":
        which[i] = which[i].replace(",", data.draw(st.sampled_from([", ", " ,", " , "])))
    elif op == "id":
        fields = which[i].split(",")
        col = data.draw(st.integers(0, len(fields) - 1 if which is edges else 0))
        fields[col] = data.draw(st.sampled_from(ID_TOKENS)).format(v=fields[col])
        which[i] = ",".join(fields)
    elif op == "value" and "," in attrs[-1]:
        fields = attrs[-1].split(",")
        fields[data.draw(st.integers(1, len(fields) - 1))] = data.draw(
            st.sampled_from(VALUE_TOKENS))
        attrs[-1] = ",".join(fields)
    elif op == "name":
        attrs[0] = attrs[0] + "," + data.draw(st.sampled_from(["车道", "", "x y"]))
        attrs[1:] = [line + ",1.0" for line in attrs[1:]]
    elif op == "duplicate_edge" and len(edges) > 1:
        edges.append(edges[data.draw(st.integers(1, len(edges) - 1))])
    elif op == "dangling_edge":
        edges.append(data.draw(st.sampled_from([f"{n},0", f"0,{n}", "0,99999999999999999999"])))
    elif op == "sink":
        v = data.draw(st.integers(0, n - 1))
        edges[1:] = [line for line in edges[1:] if not line.startswith(f"{v},")]


def join_lines(lines: list[str], ops: list[str], data) -> bytes:
    """The file's bytes: ``lines`` with ``\\n`` ends, and, where ``ops`` ask
    for them, CRLF ends, no final line end or a byte that is not UTF-8."""
    raw = "".join(line + "\n" for line in lines).encode("utf-8")
    if "crlf" in ops and data.draw(st.booleans()):
        raw = raw.replace(b"\n", b"\r\n")
    if "no_final_newline" in ops and data.draw(st.booleans()):
        raw = raw.rstrip(b"\n")
    if "non_utf8" in ops and data.draw(st.booleans()):
        at = data.draw(st.integers(0, len(raw)))
        raw = raw[:at] + b"\xff" + raw[at:]
    return raw


def load_outcome(edges, attrs):
    """What :func:`load_network` gives: the network's arrays and warnings,
    or the error's text."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            net = load_network(edges, attrs)
            got = ("net", net.src.tobytes(), net.dst.tobytes(), net.A.tobytes(), net.A.shape,
                   net.A.strides, net.attr_names, net.self_loop_nodes)
        except ValidationError as exc:
            got = ("error", str(exc))
    return got, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


def load_both_ways(edges, attrs):
    """:func:`load_outcome` with the whole-array readers, and with the row
    loops alone."""
    fast = load_outcome(edges, attrs)
    with mock.patch.object(graph, "_node_table_arrays", lambda *args: None), \
            mock.patch.object(graph, "_edge_arrays", lambda *args: None):
        return fast, load_outcome(edges, attrs)


@pytest.mark.parametrize("column", ["node_id", "src", "dst", "value"])
@pytest.mark.parametrize("token", sorted(set(ID_TOKENS + VALUE_TOKENS)))
def test_each_token_reads_alike(tmp_path, column, token):
    """One field of a canonical 3-node network, set to each token, loads the
    same through the whole-array readers and the row loops."""
    edges = ["src,dst", "0,1", "1,2", "2,0"]
    attrs = ["node_id,a,b", "0,1.5,2.0", "1,3.0,0.25", "2,0.5,4.0"]
    lines, col = {"node_id": (attrs, 0), "src": (edges, 0), "dst": (edges, 1),
                  "value": (attrs, 2)}[column]
    fields = lines[2].split(",")
    fields[col] = token.format(v=fields[col])
    lines[2] = ",".join(fields)
    (tmp_path / "edges.csv").write_text("".join(line + "\n" for line in edges))
    (tmp_path / "attributes.csv").write_text("".join(line + "\n" for line in attrs))
    fast, rows = load_both_ways(tmp_path / "edges.csv", tmp_path / "attributes.csv")
    assert fast == rows


@settings(max_examples=400, deadline=None)
@given(n=st.integers(1, 9), m=st.integers(1, 3),
       entries=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e300),
                                  st.floats(0.0, 1e-300)), min_size=27, max_size=27),
       ops=st.lists(st.sampled_from(PERTURBATIONS), min_size=1, max_size=3), data=st.data())
def test_whole_array_readers_match_the_row_loops(tmp_path_factory, n, m, entries, ops, data):
    """For random networks written by ``save_network`` and then perturbed,
    the whole-array readers and the row loops give bit-equal arrays and the
    same warnings, or the same ValidationError text; the array readers take
    every unperturbed file."""
    A = np.array(entries[:n * m]).reshape(n, m)
    A[~(A > 0).any(axis=1), 0] = 1.0
    pairs = data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    pairs |= {(i, (i + 1) % n) for i in range(n)}
    src, dst = (np.array(side, dtype=np.int64) for side in zip(*sorted(pairs)))
    d = tmp_path_factory.mktemp("net")
    save_network(RoadNetwork(n=n, m=m, src=src, dst=dst, A=A,
                             attr_names=tuple(f"a{k}" for k in range(m))), d)
    edges_path, attrs_path = d / "edges.csv", d / "attributes.csv"
    if set(ops) == {"none"}:
        assert graph._node_table_arrays(attrs_path, None) is not None
        assert graph._edge_arrays(edges_path, n) is not None
    edges = edges_path.read_text().splitlines()
    attrs = attrs_path.read_text().splitlines()
    for op in ops:
        perturb(edges, attrs, n, op, data)
    edges_path.write_bytes(join_lines(edges, ops, data))
    attrs_path.write_bytes(join_lines(attrs, ops, data))

    table = graph._node_table_arrays(attrs_path, None)
    if table is not None:
        names, values, line_of = graph._read_node_table_rows(attrs_path, "attribute", None)
        assert table[0] == names and table[2] == line_of
        assert table[1].tobytes() == values.tobytes() and table[1].shape == values.shape
        arrays = graph._edge_arrays(edges_path, values.shape[0])
        if arrays is not None:
            for got, want in zip(arrays, graph._read_edge_rows(edges_path, values.shape[0])):
                assert got.tobytes() == want.tobytes()
    fast, rows = load_both_ways(edges_path, attrs_path)
    assert fast == rows
