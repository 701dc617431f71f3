import math

import numpy as np
import numpy.testing as npt
import pytest

from roadrank.encoder import (EmbedParams, LSTMCellParams, _bilstm_batch,
                              _cell_forward, _encode_batch, _pool_batch,
                              minmax_scale_columns, vertex_features)
from roadrank.graph import ValidationError, normalized_views
from roadrank.model import PairScorer, apply_ablation
from roadrank.ranker import RankerParams
from roadrank.synth import synth_grid_network
from roadrank.walks import WalkConfig, sample_walks


def encode(seq, A, p):
    """Initial encoding of one sequence, (len(seq), x)."""
    x, _ = _encode_batch(np.asarray([seq]), vertex_features(A), p)
    return x[0]


def lstm(xs, cell):
    """One direction over a single sequence (L, x) -> (L, dim)."""
    h, _ = _cell_forward(np.asarray(xs, dtype=float)[None], cell)
    return h[0]


def embed_all(ss, net, p):
    """Every node's pooled embedding through the scorer's embedding path."""
    scorer = PairScorer(net, ss, p, RankerParams.zeros(p.hdim), apply_ablation("full"))
    h, _ = scorer.node_embeddings(np.arange(net.n))
    return h


def test_zero_params_zero_outputs():
    p = EmbedParams.zeros(m=3, x=4, dim=2)
    A = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    xs = encode([0, 1, 3], A, p)  # node, node, attribute
    npt.assert_array_equal(xs, np.zeros((3, 4)))
    h, _ = _bilstm_batch(np.ones((1, 4, 4)), p)
    npt.assert_array_equal(h, np.zeros((1, 4, 4)))


def test_initial_encode_one_hot_identity():
    m = 2
    W = np.zeros((m, 4))
    W[0, 0] = 1.0
    W[1, 1] = 1.0  # identity extended with zero columns
    p = EmbedParams.zeros(m=m, x=4, dim=1)
    p.w_in[...] = W
    A = np.array([[0.5, 0.5]])
    out = encode([1], A, p)  # vertex id 1 = attribute 0 -> one-hot (1, 0)
    assert out[0, 0] == pytest.approx(math.tanh(1.0), abs=1e-12)
    assert out[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_initial_encode_range_and_id_bounds():
    rng = np.random.default_rng(0)
    p = EmbedParams.init(m=3, x=5, dim=2, seed=1)
    A = rng.uniform(0, 1, size=(4, 3))
    out = encode([0, 1, 2, 3, 4, 5, 6], A, p)  # every id in 0..n+m-1
    assert out.shape == (7, 5)
    assert (np.abs(out) < 1.0).all()


def half_weights_cell():
    """x = (1,), dim 1, every input and recurrent weight 0.5, zero biases."""
    cell = LSTMCellParams.zeros(x=1, dim=1)
    assert cell.w_x.shape == (1, 4) and cell.w_h.shape == (1, 4) and cell.b.shape == (4,)
    cell.w_x[...] = 0.5
    cell.w_h[...] = 0.5
    return cell


def test_lstm_single_step_hand_values():
    h = lstm(np.array([[1.0]]), half_weights_cell())

    sig = lambda z: 1.0 / (1.0 + math.exp(-z))
    gate = sig(0.5)
    c1 = gate * math.tanh(0.5)
    h1 = gate * math.tanh(c1)
    assert gate == pytest.approx(0.6225, abs=1e-4)
    assert c1 == pytest.approx(0.2876, abs=1e-3)
    assert h1 == pytest.approx(0.174, abs=1e-3)
    assert h[0, 0] == pytest.approx(h1, abs=1e-14)


def test_lstm_two_steps_hand_recurrence():
    # distinct weights per gate block, so a wrong block order changes h
    cell = LSTMCellParams.zeros(x=1, dim=1)
    wx, wh, bias = (0.5, -0.25, 0.75, 0.4), (0.3, 0.6, -0.2, 0.9), (0.1, -0.1, 0.05, 0.0)
    cell.w_x[0], cell.w_h[0], cell.b[...] = wx, wh, bias  # blocks i, f, o, c
    xs = np.array([[1.0], [0.25]])
    h = lstm(xs, cell)

    sig = lambda z: 1.0 / (1.0 + math.exp(-z))
    h_prev, c_prev = 0.0, 0.0
    expected = []
    for x in (1.0, 0.25):
        pre = [wx[k] * x + wh[k] * h_prev + bias[k] for k in range(4)]
        i, f, o, g = sig(pre[0]), sig(pre[1]), sig(pre[2]), math.tanh(pre[3])
        c_prev = f * c_prev + i * g
        h_prev = o * math.tanh(c_prev)
        expected.append(h_prev)
    npt.assert_allclose(h[:, 0], expected, atol=1e-14)


def test_bilstm_reversal_symmetry():
    p = EmbedParams.init(m=3, x=4, dim=2, seed=7)
    xs = np.random.default_rng(2).normal(size=(5, 4))
    h2, _ = _bilstm_batch(xs[None], p)
    backward_half = h2[0, :, p.dim:]
    npt.assert_allclose(backward_half, lstm(xs[::-1], p.bw)[::-1], atol=1e-15)
    forward_half = h2[0, :, :p.dim]
    npt.assert_allclose(forward_half, lstm(xs, p.fw), atol=1e-15)


def test_pool_single_sequence_constant():
    v = np.array([1.0, -2.0])
    hs = np.tile(v, (1, 3, 1))  # num=1, l=3
    npt.assert_allclose(_pool_batch(hs[None])[0], np.concatenate([v, v]))


def test_pool_two_sequences_mean():
    u = np.array([2.0, 0.0])
    w = np.array([0.0, 4.0])
    hs = np.zeros((2, 2, 2))
    hs[0, 0] = u
    hs[1, 0] = w
    out = _pool_batch(hs[None])[0]
    npt.assert_allclose(out[:2], (u + w) / 2)


def test_pool_hand_computed():
    rng = np.random.default_rng(4)
    hs = rng.normal(size=(2, 3, 2))  # num=2, l=3, width=2
    out = _pool_batch(hs[None])[0]
    # independent plain-loop evaluation
    hbar = [[(hs[0, j, d] + hs[1, j, d]) / 2 for d in range(2)] for j in range(3)]
    hhat = [(hbar[1][d] + hbar[2][d]) / 2 for d in range(2)]
    expected = hbar[0] + hhat
    npt.assert_allclose(out, expected, atol=1e-15)
    assert out.shape == (4,)


def test_pool_rejects_short_sequences():
    # pooling needs length >= 2; sample sets of shorter sequences cannot exist
    with pytest.raises(ValidationError, match="length"):
        WalkConfig(alpha=0.5, num=2, length=1, seed=0)


def test_embed_all_contracts():
    net = synth_grid_network(2, 3, seed=9)
    views = normalized_views(net)
    ss = sample_walks(net, views, WalkConfig(alpha=0.3, num=4, length=4, seed=1))
    p = EmbedParams.init(net.m, x=8, dim=2, seed=3)
    H = embed_all(ss, net, p)
    assert H.shape == (net.n, p.hdim)
    assert p.hdim == 8 and p.dim == 2

    zero = EmbedParams.zeros(net.m, 8, 2)
    npt.assert_array_equal(embed_all(ss, net, zero), np.zeros((net.n, 8)))

    # permuting a node's sequences cannot change its embedding
    shuffled = ss.sequences.copy()
    shuffled[0] = shuffled[0][::-1]
    from roadrank.walks import SampleSet
    ss2 = SampleSet(sequences=shuffled, n=ss.n, m=ss.m, config=ss.config)
    npt.assert_allclose(embed_all(ss2, net, p), H, atol=1e-15)


def test_embed_all_deterministic():
    net = synth_grid_network(2, 2, seed=0)
    views = normalized_views(net)
    ss = sample_walks(net, views, WalkConfig(alpha=0.5, num=3, length=4, seed=2))
    p = EmbedParams.init(net.m, 8, 2, seed=5)
    npt.assert_array_equal(embed_all(ss, net, p), embed_all(ss, net, p))


def test_minmax_scaling():
    A = np.array([[0.0, 5.0, 7.0], [10.0, 5.0, 3.0], [5.0, 5.0, 11.0]])
    scaled = minmax_scale_columns(A)
    npt.assert_allclose(scaled[:, 0], [0.0, 1.0, 0.5])
    npt.assert_array_equal(scaled[:, 1], [0.0, 0.0, 0.0])  # constant column
    assert scaled.min() >= 0.0 and scaled.max() <= 1.0


def test_vertex_features_layout():
    A = np.array([[0.2, 0.8], [0.6, 0.4]])
    feats = vertex_features(A)
    npt.assert_array_equal(feats[:2], A)
    npt.assert_array_equal(feats[2:], np.eye(2))


def test_encoder_gradients_finite_difference():
    """Weighted-sum loss over PairScorer.node_embeddings, checked element by element."""
    net = synth_grid_network(2, 2, seed=6)
    views = normalized_views(net)
    ss = sample_walks(net, views, WalkConfig(alpha=0.5, num=2, length=4, seed=3))
    p = EmbedParams.init(net.m, x=4, dim=2, seed=8)
    rng = np.random.default_rng(1)
    weights = rng.normal(size=(net.n, p.hdim))

    from roadrank.encoder import (_bilstm_backward, _bilstm_batch, _encode_backward,
                                  _encode_batch, _pool_backward, _pool_batch)

    feats = vertex_features(minmax_scale_columns(net.A))
    n, num, l = ss.sequences.shape
    ids = ss.sequences.reshape(n * num, l)

    def loss():
        return float((embed_all(ss, net, p) * weights).sum())

    x, enc_cache = _encode_batch(ids, feats, p)
    h, lstm_cache = _bilstm_batch(x, p)
    _pool_batch(h.reshape(n, num, l, 2 * p.dim))
    grads = EmbedParams.zeros(p.m, p.x, p.dim)
    dh = _pool_backward(weights, num, l).reshape(n * num, l, 2 * p.dim)
    dx = _bilstm_backward(dh, lstm_cache, p, grads)
    _encode_backward(dx, enc_cache, p, grads)

    step = 1e-6
    analytic = grads.tensors()
    for name, tensor in p.tensors().items():
        g = analytic[name]
        for k in np.ndindex(tensor.shape):  # in place: per-gate tensors are strided views
            keep = tensor[k]
            tensor[k] = keep + step
            up = loss()
            tensor[k] = keep - step
            down = loss()
            tensor[k] = keep
            numeric = (up - down) / (2 * step)
            assert abs(numeric - g[k]) / max(1.0, abs(numeric), abs(g[k])) < 1e-6, name
