import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadrank import walks
from roadrank.alias import AliasTable, alias_draw, build_alias
from roadrank.graph import RoadNetwork, ValidationError, normalized_views
from roadrank.synth import synth_grid_network
from roadrank.walks import (SampleSet, WalkConfig, attr_to_node_distribution,
                            load_samples, node_step_distribution,
                            node_to_attr_distribution, sample_walks,
                            save_samples)


def net_from(succ, n=3):
    """Hand-built network for the step-law unit test; ``succ[i]`` lists the
    out-neighbours of node ``i``."""
    src = np.array([i for i in range(n) for _ in succ[i]], dtype=np.int64)
    dst = np.array([j for i in range(n) for j in succ[i]], dtype=np.int64)
    return RoadNetwork(n=n, m=1, src=src, dst=dst, A=np.ones((n, 1)), attr_names=("a",))


def abar_from(abar_rows, n=3, m=2):
    """Hand-built attribute view for distribution unit tests; row ``k`` is
    ``abar_rows[k]`` and the other rows are zero."""
    abar = np.zeros((m, n))
    for k, row in abar_rows.items():
        abar[k] = row
    return abar


def test_node_step_distribution():
    v = net_from(succ={0: [1, 2], 1: [2], 2: [0]})
    npt.assert_allclose(node_step_distribution(0, v), [0.0, 0.5, 0.5])
    npt.assert_allclose(node_step_distribution(1, v), [0.0, 0.0, 1.0])


def test_node_to_attr_distribution():
    # abar column 0 is (0.1, 0.3) -> renormalized (0.25, 0.75)
    v = abar_from(abar_rows={0: [0.1, 0.9, 0.0], 1: [0.3, 0.3, 0.4]})
    npt.assert_allclose(node_to_attr_distribution(0, v), [0.25, 0.75])
    single = abar_from(abar_rows={0: [1.0, 0.0, 0.0]}, m=1)
    npt.assert_allclose(node_to_attr_distribution(0, single), [1.0])
    sym = abar_from(abar_rows={0: [0.2, 0.8, 0.0], 1: [0.2, 0.8, 0.0]})
    npt.assert_allclose(node_to_attr_distribution(0, sym), [0.5, 0.5])


def test_node_to_attr_rejects_zero_column():
    v = abar_from(abar_rows={0: [0.0, 1.0, 0.0], 1: [0.0, 0.5, 0.5]})
    with pytest.raises(ValidationError, match="node 0"):
        node_to_attr_distribution(0, v)


def test_attr_to_node_similarity_weights():
    # row (0.2, 0.3, 0.5), origin 0: d = (0, .1, .3), weights (1, .9, .7) / 2.6
    v = abar_from(abar_rows={0: [0.2, 0.3, 0.5], 1: [1 / 3] * 3})
    got = attr_to_node_distribution(0, 0, v)
    npt.assert_allclose(got, [10 / 26, 9 / 26, 7 / 26], atol=1e-15)
    assert abs(got.sum() - 1.0) < 1e-12


def test_attr_to_node_uniform_when_identical():
    v = abar_from(abar_rows={0: [0.5, 0.5, 0.0]})
    npt.assert_allclose(attr_to_node_distribution(0, 0, v), [0.5, 0.5, 0.0])


def test_attr_to_node_singleton_support():
    v = abar_from(abar_rows={0: [1.0, 0.0, 0.0]})
    npt.assert_allclose(attr_to_node_distribution(0, 0, v), [1.0, 0.0, 0.0])


def test_attr_to_node_zero_weight_support_falls_back_uniform():
    # origin holds none of the attribute, lone support node holds all of it:
    # the similarity weight vanishes, so the support is used uniformly
    v = abar_from(abar_rows={0: [0.0, 1.0, 0.0]})
    npt.assert_allclose(attr_to_node_distribution(0, 0, v), [0.0, 1.0, 0.0])


def test_attr_to_node_empty_support_rejected():
    v = abar_from(abar_rows={0: [0.0, 0.0, 0.0]})
    with pytest.raises(ValidationError, match="empty support"):
        attr_to_node_distribution(0, 0, v)


def test_distributions_sum_to_one_on_real_network():
    net = synth_grid_network(3, 4, seed=8)
    abar = normalized_views(net)
    for i in range(net.n):
        for dist in (node_step_distribution(i, net), node_to_attr_distribution(i, abar)):
            assert dist.min() >= 0.0
            assert abs(dist.sum() - 1.0) < 1e-9
        for k in range(net.m):
            dist = attr_to_node_distribution(i, k, abar)
            assert dist.min() >= 0.0
            assert abs(dist.sum() - 1.0) < 1e-9


def test_walk_config_validation():
    with pytest.raises(ValidationError):
        WalkConfig(alpha=1.5, num=1, length=4, seed=0)
    with pytest.raises(ValidationError):
        WalkConfig(alpha=0.5, num=0, length=4, seed=0)
    with pytest.raises(ValidationError):
        WalkConfig(alpha=0.5, num=1, length=1, seed=0)


def test_alpha_one_is_pure_random_walk():
    net = synth_grid_network(3, 3, seed=1)
    abar = normalized_views(net)
    ss = sample_walks(net, abar, WalkConfig(alpha=1.0, num=20, length=5, seed=3))
    assert ss.sequences.max() < net.n  # node ids only


def test_alpha_zero_bridge_pattern():
    net = synth_grid_network(3, 3, seed=1)
    abar = normalized_views(net)
    ss = sample_walks(net, abar, WalkConfig(alpha=0.0, num=10, length=4, seed=3))
    is_attr = ss.sequences >= net.n
    # allowed patterns: (node, attr, node, attr) or (node, attr, node, node)
    patterns = {tuple(row) for row in is_attr.reshape(-1, 4)}
    assert patterns <= {(False, True, False, True), (False, True, False, False)}


def test_sample_structural_invariants():
    net = synth_grid_network(4, 4, seed=5)
    abar = normalized_views(net)
    for alpha in (0.0, 0.3, 1.0):
        ss = sample_walks(net, abar, WalkConfig(alpha=alpha, num=8, length=6, seed=11))
        n, num, l = ss.sequences.shape
        assert (n, num, l) == (net.n, 8, 6)
        starts = ss.sequences[:, :, 0]
        npt.assert_array_equal(starts, np.arange(net.n)[:, None].repeat(num, axis=1))
        assert ss.sequences.min() >= 0
        assert ss.sequences.max() < net.n + net.m
        is_attr = ss.sequences >= net.n
        assert not (is_attr[:, :, :-1] & is_attr[:, :, 1:]).any()


def test_sampling_deterministic():
    net = synth_grid_network(3, 3, seed=2)
    abar = normalized_views(net)
    cfg = WalkConfig(alpha=0.4, num=5, length=4, seed=99)
    a = sample_walks(net, abar, cfg)
    b = sample_walks(net, abar, cfg)
    npt.assert_array_equal(a.sequences, b.sequences)


def test_sample_roundtrip(tmp_path):
    net = synth_grid_network(2, 3, seed=4)
    abar = normalized_views(net)
    cfg = WalkConfig(alpha=0.0001, num=3, length=4, seed=17)
    ss = sample_walks(net, abar, cfg)
    path = tmp_path / "samples.txt"
    save_samples(ss, path)
    back = load_samples(path)
    npt.assert_array_equal(back.sequences, ss.sequences)
    assert back.config == cfg
    assert back.n == ss.n and back.m == ss.m
    header = path.read_text().splitlines()
    assert header[0] == "roadrank-samples v2"
    assert header[5] == "alpha 0.0001"


def test_load_samples_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a sample file\n")
    with pytest.raises(ValidationError, match="header"):
        load_samples(path)


def chi_square_z(counts, p):
    """Pearson's statistic for ``counts`` against law ``p``, as a standard
    normal deviate by the Wilson-Hilferty cube-root transform."""
    keep = p > 0
    assert counts[~keep].sum() == 0, "draw outside the law's support"
    expected = counts.sum() * p[keep]
    stat = ((counts[keep] - expected) ** 2 / expected).sum()
    dof = keep.sum() - 1
    return ((stat / dof) ** (1 / 3) - (1 - 2 / (9 * dof))) / np.sqrt(2 / (9 * dof))


def test_bridge_landing_follows_attr_to_node_law():
    """Every (origin, attribute) landing law of the rejection bridge is the
    one :func:`attr_to_node_distribution` gives, on a ring whose attribute
    shares are spread out and partly zero, so that proposals are rejected."""
    n = 12
    rng = np.random.default_rng(5)
    A = rng.gamma(0.4, size=(n, 3)) * (rng.random((n, 3)) < 0.75)
    A[A.sum(axis=1) == 0, 0] = 1.0
    src = np.arange(n)
    net = RoadNetwork(n=n, m=3, src=src, dst=(src + 1) % n, A=A, attr_names=("a", "b", "c"))
    abar = normalized_views(net)
    ss = sample_walks(net, abar, WalkConfig(alpha=0.0, num=60_000, length=3, seed=8))
    worst, least_acceptance = 0.0, 1.0
    for i in range(n):
        attr, land = ss.sequences[i, :, 1] - n, ss.sequences[i, :, 2]
        for k in np.flatnonzero(abar[:, i]):
            p = attr_to_node_distribution(i, k, abar)
            support = abar[k] > 0
            if support.sum() < 2:
                continue
            least_acceptance = min(least_acceptance, (1 - np.abs(
                abar[k, support] - abar[k, i])).mean())
            worst = max(worst, chi_square_z(np.bincount(land[attr == k], minlength=n), p))
    assert least_acceptance < 0.8  # proposals are rejected for some (origin, attribute)
    assert worst < 4.0


def reference_walks(net, abar, cfg):
    """The sampler as one loop over nodes: node ``i``'s walks advance
    together on its own stream ``SeedSequence((cfg.seed, i))``, with the
    draws :func:`walks.sample_walks` makes for it."""
    n, num = net.n, cfg.num
    deg = np.diff(net.out_ptr)
    tables = [build_alias(node_to_attr_distribution(i, abar)) for i in range(n)]
    to_attr_prob = np.array([t.prob for t in tables])
    to_attr_alias = np.array([t.alias for t in tables])
    sup_k, sup_idx = np.nonzero(abar)
    sup_ptr = np.concatenate(([0], np.cumsum(np.bincount(sup_k, minlength=net.m))))
    out = np.empty((n, num, cfg.length), dtype=np.int64)
    for i in range(n):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, i))))
        seqs = out[i]
        seqs[:, 0] = i
        for p in range(1, cfg.length):
            prev = seqs[:, p - 1]
            on_node = prev < n
            heads = rng.random(num) < cfg.alpha
            step = np.flatnonzero(on_node & heads)
            if step.size:
                cur = prev[step]
                seqs[step, p] = net.out_idx[net.out_ptr[cur] + rng.integers(0, deg[cur])]
            bridge = np.flatnonzero(on_node & ~heads)
            if bridge.size:
                cur = prev[bridge]
                stack = AliasTable(prob=to_attr_prob[cur], alias=to_attr_alias[cur])
                seqs[bridge, p] = n + alias_draw(stack, rng)
            land = np.flatnonzero(~on_node)
            # rejection from the attribute's support, only the rejected walks proposing again
            origin, k = seqs[land, p - 2], prev[land] - n
            while land.size:
                lo = sup_ptr[k]
                j = sup_idx[lo + rng.integers(0, sup_ptr[k + 1] - lo)]
                accept = rng.random(land.size) < 1.0 - np.abs(abar[k, j] - abar[k, origin])
                seqs[land[accept], p] = j[accept]
                land, origin, k = land[~accept], origin[~accept], k[~accept]
    return out


@st.composite
def small_networks(draw):
    """A network of 1-12 nodes with random edges, its sinks patched with
    self-loops, and 3-4 attributes of small integer values; attribute 0 may
    be all-zero and attribute 1 may be held by one node."""
    n, m = draw(st.integers(1, 12)), draw(st.integers(3, 4))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    edges += [(i, i) for i in sorted(set(range(n)) - {s for s, _ in edges})]
    src, dst = (np.array(side, dtype=np.int64) for side in zip(*edges))
    A = np.array(draw(st.lists(st.integers(0, 3), min_size=n * m, max_size=n * m)),
                 dtype=np.float64).reshape(n, m)
    if draw(st.booleans()):
        A[:, 0] = 0.0
    if draw(st.booleans()):
        A[:, 1] = 0.0
        A[draw(node), 1] = 2.0
    A[A.sum(axis=1) == 0, 2] = 1.0
    return RoadNetwork(n=n, m=m, src=src, dst=dst, A=A, attr_names=tuple("abcd"[:m]))


@pytest.mark.filterwarnings("ignore:attribute")
@settings(max_examples=150, deadline=None)
@given(net=small_networks(), alpha=st.sampled_from([0.0, 1e-4, 0.3, 1.0]),
       num=st.integers(1, 5), length=st.integers(2, 6), seed=st.integers(0, 2**32))
def test_node_blocks_match_the_per_node_loop(net, alpha, num, length, seed):
    """Blocks of 1, 7 and all nodes give the per-node loop's sequences, bit for bit."""
    abar = normalized_views(net)
    cfg = WalkConfig(alpha=alpha, num=num, length=length, seed=seed)
    want = reference_walks(net, abar, cfg)
    for block in (1, 7, net.n):
        with mock.patch.object(walks, "_NODE_BLOCK", block):
            npt.assert_array_equal(sample_walks(net, abar, cfg).sequences, want)


def test_sampler_tables_match_the_per_node_tables():
    """With m = 9 attributes, where numpy sums a node's column pairwise
    rather than one term after another, the sampler's one stacked table
    holds, row by row, the bits of ``node_to_attr_distribution`` and a
    one-row ``build_alias``: for the view ``normalized_views`` returns, whose
    columns are contiguous, and for a row-major copy, whose column sums
    along axis 0 would add one term after another."""
    rng = np.random.default_rng(9)
    grid = synth_grid_network(6, 6, seed=1)
    A = rng.uniform(0.1, 100.0, size=(grid.n, 9)) * (rng.random((grid.n, 9)) < 0.7)
    A[:, 0] += 1.0
    net = RoadNetwork(n=grid.n, m=9, src=grid.src, dst=grid.dst, A=A,
                      attr_names=tuple("abcdefghi"))
    rows = np.ascontiguousarray(normalized_views(net))
    per_node = np.array([rows[:, i].sum() for i in range(net.n)])
    assert (rows.sum(axis=0) != per_node).any()  # the orders differ here
    for abar in (normalized_views(net), rows):
        tables = []

        def spy(p):
            tables.append(build_alias(p))
            return tables[-1]

        with mock.patch.object(walks, "build_alias", spy):
            sample_walks(net, abar, WalkConfig(alpha=0.5, num=2, length=3, seed=0))
        [stack] = tables
        for i in range(net.n):
            want = build_alias(node_to_attr_distribution(i, abar))
            assert stack.prob[i].tobytes() == want.prob.tobytes(), i
            npt.assert_array_equal(stack.alias[i], want.alias)


def test_sampler_memory_does_not_grow_with_node_attribute_tables():
    """60x60 grid (3,600 nodes, 5 attributes): one n-wide table per (node,
    attribute) pair would be 3,600 * 5 * 3,600 * 16 B, about 1 GB; the
    sampler's own arrays are the output (1.2 MB here) and O(n * m)."""
    net = synth_grid_network(60, 60, seed=1)
    abar = normalized_views(net)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sample_walks(net, abar, WalkConfig(alpha=0.0001, num=10, length=4, seed=1))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


def write_samples_per_line(samples, path):
    """Reference writer: the body one ``" ".join`` per sequence line."""
    with open(path, "w") as fh:
        for row in samples.sequences.reshape(-1, samples.config.length):
            fh.write(" ".join(str(v) for v in row) + "\n")


def test_save_samples_body_matches_per_line_writer(tmp_path):
    """More sequence lines than one write block, so blocks join up."""
    rng = np.random.default_rng(3)
    cfg = WalkConfig(alpha=0.25, num=70, length=5, seed=2)
    seqs = rng.integers(0, 10**6, size=(100, 70, 5))
    ss = SampleSet(sequences=seqs, n=100, m=10**6 - 100, config=cfg)
    save_samples(ss, tmp_path / "s.txt")
    write_samples_per_line(ss, tmp_path / "ref.txt")
    assert (tmp_path / "s.txt").read_text().split("\n", 7)[7] == (tmp_path / "ref.txt").read_text()


def test_save_samples_at_every_power_of_ten(tmp_path):
    """Ids either side of each power of ten, at every place in a line."""
    ids = np.array([0] + [v for k in range(1, 7) for v in (10**k - 1, 10**k)])
    seqs = np.array([np.roll(ids, r) for r in range(ids.size)]).reshape(ids.size, 1, ids.size)
    cfg = WalkConfig(alpha=0.5, num=1, length=ids.size, seed=0)
    ss = SampleSet(sequences=seqs, n=ids.size, m=10**6 + 1 - ids.size, config=cfg)
    save_samples(ss, tmp_path / "s.txt")
    write_samples_per_line(ss, tmp_path / "ref.txt")
    assert (tmp_path / "s.txt").read_text().split("\n", 7)[7] == (tmp_path / "ref.txt").read_text()


def test_sample_set_without_vertices_round_trips(tmp_path):
    cfg = WalkConfig(alpha=0.5, num=2, length=3, seed=1)
    save_samples(SampleSet(sequences=np.zeros((0, 2, 3), np.int64), n=0, m=0, config=cfg),
                 tmp_path / "s.txt")
    assert (tmp_path / "s.txt").read_text() == ("roadrank-samples v2\nn 0\nm 0\nnum 2\nl 3\n"
                                                "alpha 0.5\nseed 1\n")
    ss = load_samples(tmp_path / "s.txt")
    assert (ss.n, ss.m, ss.config, ss.sequences.shape) == (0, 0, cfg, (0, 2, 3))


V1_SAMPLES = Path(__file__).parent / "data" / "v1" / "samples.txt"


def test_v1_samples_file_loads(tmp_path):
    """A v1 file loads as it is; written back, only the magic line changes."""
    text = V1_SAMPLES.read_text()
    assert text.startswith("roadrank-samples v1\n")
    ss = load_samples(V1_SAMPLES)
    assert ss.sequences.shape == (ss.n, ss.config.num, ss.config.length)
    save_samples(ss, tmp_path / "v2.txt")
    assert (tmp_path / "v2.txt").read_text() == text.replace("v1", "v2", 1)


@pytest.mark.parametrize("body, ln, message", [
    ("1 2 3\n\n4 5 6\n", 9, "wrong length"),
    ("1 2 3\n   \n4 5 6\n", 9, "wrong length"),
    ("1 2 3\n# 4 5 6\n4 5 6\n", 9, "non-integer"),
    ("1 2 3\n4 5\n4 5 6\n", 9, "wrong length"),
    ("1 2 3\n4 5 6 7\n4 5 6\n", 9, "wrong length"),
    ("1 2 3\n4 5.0 6\n4 5 6\n", 9, "non-integer"),
    ("1 2 3\n4 5 6\n", 10, "truncated"),
    ("1 2 3\n4 5 6\n99999999999999999999 5 6\n", 10, "out of range"),
    ("1 2 3\n4 5 10\n4 5 6\n", 9, "out of range"),
    ("1 2 3\n-1 5 6\n4 5 6\n", 9, "out of range"),
    ("1 2 3\n4 5 6\n4 5 6\ngarbage here\n", 11, "extra line"),
    ("1 2 3\n4 5 6\n4 5 6\n\n \n4 5 6\n", 13, "extra line"),
    ("1 2 3\n4 5\n4 5 6\n4 5 6\n", 9, "wrong length"),
])
def test_load_samples_names_the_bad_sequence_line(tmp_path, body, ln, message):
    path = tmp_path / "s.txt"
    path.write_text("roadrank-samples v2\nn 3\nm 7\nnum 1\nl 3\nalpha 0.5\nseed 1\n" + body)
    with pytest.raises(ValidationError, match=f"s.txt:{ln}: .*{message}"):
        load_samples(path)


def test_load_samples_header_count_beyond_the_body(tmp_path):
    """A header claiming 10^10 sequences ends at the body's end, before
    any array for that many is allocated."""
    path = tmp_path / "s.txt"
    path.write_text("roadrank-samples v2\nn 10000000000\nm 7\nnum 1\nl 3\nalpha 0.5\n"
                    "seed 1\n1 2 3\n")
    with pytest.raises(ValidationError, match="s.txt:9: truncated"):
        load_samples(path)


def test_load_samples_allows_blank_lines_after_the_body(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("roadrank-samples v2\nn 2\nm 7\nnum 1\nl 3\nalpha 0.5\nseed 1\n"
                    "1 2 3\n4 5 6\n\n  \n")
    assert load_samples(path).sequences.shape == (2, 1, 3)


def test_load_samples_reads_the_line_loops_integers(tmp_path):
    """Ids the numpy parser refuses but ``int`` accepts load as before."""
    path = tmp_path / "s.txt"
    path.write_text("roadrank-samples v2\nn 2\nm 20\nnum 1\nl 3\nalpha 0.5\nseed 1\n"
                    "1 2 3\n1_0 +4 \u0665\n")
    npt.assert_array_equal(load_samples(path).sequences.reshape(2, 3), [[1, 2, 3], [10, 4, 5]])
