import numpy as np
import numpy.testing as npt
import pytest

from roadrank.graph import NormalizedViews, ValidationError, normalized_views
from roadrank.synth import synth_grid_network
from roadrank.walks import (WalkConfig, attr_to_node_distribution,
                            load_samples, node_step_distribution,
                            node_to_attr_distribution, sample_walks,
                            save_samples)


def views_from(succ=None, abar_rows=None, n=3, m=2):
    """Hand-built views for distribution unit tests; ``succ[i]`` lists the
    out-neighbours of node ``i``."""
    rows = [sorted((succ or {}).get(i, [])) for i in range(n)]
    out_ptr = np.cumsum([0] + [len(r) for r in rows])
    out_idx = np.array([j for r in rows for j in r], dtype=np.int64)
    abar = np.zeros((m, n))
    if abar_rows:
        for k, row in abar_rows.items():
            abar[k] = row
    return NormalizedViews(out_ptr=out_ptr, out_idx=out_idx, abar=abar)


def test_node_step_distribution():
    v = views_from(succ={0: [1, 2], 1: [2], 2: [0]})
    npt.assert_allclose(node_step_distribution(0, v), [0.0, 0.5, 0.5])
    npt.assert_allclose(node_step_distribution(1, v), [0.0, 0.0, 1.0])


def test_node_to_attr_distribution():
    # abar column 0 is (0.1, 0.3) -> renormalized (0.25, 0.75)
    v = views_from(abar_rows={0: [0.1, 0.9, 0.0], 1: [0.3, 0.3, 0.4]})
    npt.assert_allclose(node_to_attr_distribution(0, v), [0.25, 0.75])
    single = views_from(abar_rows={0: [1.0, 0.0, 0.0]}, m=1)
    npt.assert_allclose(node_to_attr_distribution(0, single), [1.0])
    sym = views_from(abar_rows={0: [0.2, 0.8, 0.0], 1: [0.2, 0.8, 0.0]})
    npt.assert_allclose(node_to_attr_distribution(0, sym), [0.5, 0.5])


def test_node_to_attr_rejects_zero_column():
    v = views_from(abar_rows={0: [0.0, 1.0, 0.0], 1: [0.0, 0.5, 0.5]})
    with pytest.raises(ValidationError, match="node 0"):
        node_to_attr_distribution(0, v)


def test_attr_to_node_similarity_weights():
    # row (0.2, 0.3, 0.5), origin 0: d = (0, .1, .3), weights (1, .9, .7) / 2.6
    v = views_from(abar_rows={0: [0.2, 0.3, 0.5], 1: [1 / 3] * 3})
    got = attr_to_node_distribution(0, 0, v)
    npt.assert_allclose(got, [10 / 26, 9 / 26, 7 / 26], atol=1e-15)
    assert abs(got.sum() - 1.0) < 1e-12


def test_attr_to_node_uniform_when_identical():
    v = views_from(abar_rows={0: [0.5, 0.5, 0.0]})
    npt.assert_allclose(attr_to_node_distribution(0, 0, v), [0.5, 0.5, 0.0])


def test_attr_to_node_singleton_support():
    v = views_from(abar_rows={0: [1.0, 0.0, 0.0]})
    npt.assert_allclose(attr_to_node_distribution(0, 0, v), [1.0, 0.0, 0.0])


def test_attr_to_node_zero_weight_support_falls_back_uniform():
    # origin holds none of the attribute, lone support node holds all of it:
    # the similarity weight vanishes, so the support is used uniformly
    v = views_from(abar_rows={0: [0.0, 1.0, 0.0]})
    npt.assert_allclose(attr_to_node_distribution(0, 0, v), [0.0, 1.0, 0.0])


def test_attr_to_node_empty_support_rejected():
    v = views_from(abar_rows={0: [0.0, 0.0, 0.0]})
    with pytest.raises(ValidationError, match="empty support"):
        attr_to_node_distribution(0, 0, v)


def test_distributions_sum_to_one_on_real_network():
    net = synth_grid_network(3, 4, seed=8)
    views = normalized_views(net)
    for i in range(net.n):
        for dist in (node_step_distribution(i, views), node_to_attr_distribution(i, views)):
            assert dist.min() >= 0.0
            assert abs(dist.sum() - 1.0) < 1e-9
        for k in range(net.m):
            dist = attr_to_node_distribution(i, k, views)
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
    views = normalized_views(net)
    ss = sample_walks(net, views, WalkConfig(alpha=1.0, num=20, length=5, seed=3))
    assert ss.sequences.max() < net.n  # node ids only


def test_alpha_zero_bridge_pattern():
    net = synth_grid_network(3, 3, seed=1)
    views = normalized_views(net)
    ss = sample_walks(net, views, WalkConfig(alpha=0.0, num=10, length=4, seed=3))
    is_attr = ss.sequences >= net.n
    # allowed patterns: (node, attr, node, attr) or (node, attr, node, node)
    patterns = {tuple(row) for row in is_attr.reshape(-1, 4)}
    assert patterns <= {(False, True, False, True), (False, True, False, False)}


def test_sample_structural_invariants():
    net = synth_grid_network(4, 4, seed=5)
    views = normalized_views(net)
    for alpha in (0.0, 0.3, 1.0):
        ss = sample_walks(net, views, WalkConfig(alpha=alpha, num=8, length=6, seed=11))
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
    views = normalized_views(net)
    cfg = WalkConfig(alpha=0.4, num=5, length=4, seed=99)
    a = sample_walks(net, views, cfg)
    b = sample_walks(net, views, cfg)
    npt.assert_array_equal(a.sequences, b.sequences)


def test_sample_roundtrip(tmp_path):
    net = synth_grid_network(2, 3, seed=4)
    views = normalized_views(net)
    cfg = WalkConfig(alpha=0.0001, num=3, length=4, seed=17)
    ss = sample_walks(net, views, cfg)
    path = tmp_path / "samples.txt"
    save_samples(ss, path)
    back = load_samples(path)
    npt.assert_array_equal(back.sequences, ss.sequences)
    assert back.config == cfg
    assert back.n == ss.n and back.m == ss.m
    header = path.read_text().splitlines()
    assert header[0] == "roadrank-samples v1"
    assert header[5] == "alpha 0.0001"


def test_load_samples_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a sample file\n")
    with pytest.raises(ValidationError, match="header"):
        load_samples(path)
