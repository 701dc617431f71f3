import math

import numpy as np
import numpy.testing as npt
import pytest

from roadrank.encoder import (EmbedParams, LSTMCellParams, PrefixIndex, Workspace,
                              _bilstm_backward, _bilstm_batch, _cell_forward, _encode_backward,
                              _encode_batch, _pool_batch, identity_levels, minmax_scale_columns,
                              sigmoid, vertex_features)
from roadrank.graph import ValidationError, normalized_views
from roadrank.model import NODE_CHUNK, PairScorer, apply_ablation, embedding_width
from roadrank.ranker import RankerParams
from roadrank.synth import synth_grid_network
from roadrank.walks import SampleSet, WalkConfig, sample_walks


def encode(seq, A, p):
    """Initial encoding of one sequence, (len(seq), x)."""
    enc, _ = _encode_batch(np.asarray([seq]), vertex_features(A), p)
    return enc[:, seq].T


def lstm(xs, cell):
    """One direction over a single sequence (L, x) -> (L, dim): input t is
    column t of the vertex table."""
    xs = np.asarray(xs, dtype=float)
    levels = identity_levels(np.arange(len(xs))[None, :])
    h, _ = _cell_forward(xs.T, levels, cell, Workspace(), "fw")
    return np.stack([ht[:, 0] for ht in h])


def bilstm(xs, p):
    """Both directions over a single sequence (L, x) -> (L, 2*dim)."""
    ids = np.arange(len(xs))[None, :]
    h2, _ = _bilstm_batch(np.asarray(xs, dtype=float).T,
                          (identity_levels(ids), identity_levels(ids[:, ::-1])), p, Workspace())
    return h2[:, :, 0]


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
    npt.assert_array_equal(bilstm(np.ones((4, 4)), p), np.zeros((4, 4)))


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
    h2 = bilstm(xs, p)
    backward_half = h2[:, p.dim:]
    npt.assert_allclose(backward_half, lstm(xs[::-1], p.bw)[::-1], atol=1e-15)
    forward_half = h2[:, :p.dim]
    npt.assert_allclose(forward_half, lstm(xs, p.fw), atol=1e-15)


def pool(hs):
    """Pool one node's sequences, given as (num, L, width)."""
    return _pool_batch(np.asarray(hs).transpose(1, 2, 0), len(hs))[0]


def test_pool_single_sequence_constant():
    v = np.array([1.0, -2.0])
    hs = np.tile(v, (1, 3, 1))  # num=1, l=3
    npt.assert_allclose(pool(hs), np.concatenate([v, v]))


def test_pool_two_sequences_mean():
    u = np.array([2.0, 0.0])
    w = np.array([0.0, 4.0])
    hs = np.zeros((2, 2, 2))
    hs[0, 0] = u
    hs[1, 0] = w
    out = pool(hs)
    npt.assert_allclose(out[:2], (u + w) / 2)


def test_pool_hand_computed():
    rng = np.random.default_rng(4)
    hs = rng.normal(size=(2, 3, 2))  # num=2, l=3, width=2
    out = pool(hs)
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
    abar = normalized_views(net)
    ss = sample_walks(net, abar, WalkConfig(alpha=0.3, num=4, length=4, seed=1))
    p = EmbedParams.init(net.m, x=8, dim=2, seed=3)
    H = embed_all(ss, net, p)
    assert H.shape == (net.n, p.hdim)
    assert p.hdim == 8 and p.dim == 2

    zero = EmbedParams.zeros(net.m, 8, 2)
    npt.assert_array_equal(embed_all(ss, net, zero), np.zeros((net.n, 8)))

    # permuting a node's sequences cannot change its embedding
    shuffled = ss.sequences.copy()
    shuffled[0] = shuffled[0][::-1]
    ss2 = SampleSet(sequences=shuffled, n=ss.n, m=ss.m, config=ss.config)
    npt.assert_allclose(embed_all(ss2, net, p), H, atol=1e-15)


def test_embed_all_deterministic():
    net = synth_grid_network(2, 2, seed=0)
    abar = normalized_views(net)
    ss = sample_walks(net, abar, WalkConfig(alpha=0.5, num=3, length=4, seed=2))
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
    abar = normalized_views(net)
    ss = sample_walks(net, abar, WalkConfig(alpha=0.5, num=2, length=4, seed=3))
    p = EmbedParams.init(net.m, x=4, dim=2, seed=8)
    rng = np.random.default_rng(1)
    weights = rng.normal(size=(net.n, p.hdim))
    scorer = PairScorer(net, ss, p, RankerParams.zeros(p.hdim), apply_ablation("full"))

    def loss():
        return float((embed_all(ss, net, p) * weights).sum())

    _, cache = scorer.node_embeddings(np.arange(net.n), with_cache=True)
    grads = EmbedParams.zeros(p.m, p.x, p.dim)
    scorer._embed_backward(weights, cache, grads)

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


# ---------------------------------------------------------------------------
# Reference encoder: the earlier (B, L, width) layout, each sequence position
# encoded on its own.  The (L, width, B) code must agree with it.
# ---------------------------------------------------------------------------

def ref_encode_batch(ids, feats, p):
    x0 = feats[ids]
    x = np.tanh(x0 @ p.w_in + p.b_in)
    return x, (x0, x)


def ref_cell_forward(x, cell):
    b, l, _ = x.shape
    dim = cell.dim
    a = x @ cell.w_x
    cs = np.empty((b, l, dim))
    hs = np.empty((b, l, dim))
    h = np.zeros((b, dim))
    c = np.zeros((b, dim))
    for t in range(l):
        at = a[:, t]
        at += h @ cell.w_h
        at += cell.b
        at[:, :3 * dim] = sigmoid(at[:, :3 * dim])
        np.tanh(at[:, 3 * dim:], out=at[:, 3 * dim:])
        i, f, o, g = np.split(at, 4, axis=1)
        c = f * c + i * g
        cs[:, t] = c
        h = o * np.tanh(c)
        hs[:, t] = h
    return hs, (x, a, cs, hs)


def ref_bilstm_batch(x, p):
    h_fw, cache_fw = ref_cell_forward(x, p.fw)
    h_bw_rev, cache_bw = ref_cell_forward(x[:, ::-1], p.bw)
    return np.concatenate([h_fw, h_bw_rev[:, ::-1]], axis=2), (cache_fw, cache_bw)


def ref_pool_batch(h):
    hbar = h.mean(axis=1)
    hhat = hbar[:, 1:].mean(axis=1)
    return np.concatenate([hbar[:, 0], hhat], axis=1)


def ref_encode_backward(dx, cache, p, grads):
    x0, x = cache
    dpre = dx * (1.0 - x * x)
    flat_d = dpre.reshape(-1, p.x)
    grads.w_in += x0.reshape(-1, p.m).T @ flat_d
    grads.b_in += flat_d.sum(axis=0)


def ref_cell_backward(dh_out, cache, cell, grads):
    x, a, cs, hs = cache
    b, l, xdim = x.shape
    dim = cell.dim
    da = np.empty_like(a)
    dh_next = np.zeros((b, dim))
    dc_next = np.zeros((b, dim))
    for t in range(l - 1, -1, -1):
        i, f, o, g = np.split(a[:, t], 4, axis=1)
        da_i, da_f, da_o, da_c = np.split(da[:, t], 4, axis=1)
        dh = dh_out[:, t] + dh_next
        tc = np.tanh(cs[:, t])
        dc = dh * o * (1.0 - tc * tc) + dc_next
        c_prev = cs[:, t - 1] if t > 0 else 0.0
        da_i[...] = dc * g * i * (1.0 - i)
        da_f[...] = dc * c_prev * f * (1.0 - f)
        da_o[...] = dh * tc * o * (1.0 - o)
        da_c[...] = dc * i * (1.0 - g * g)
        dc_next = dc * f
        dh_next = da[:, t] @ cell.w_h.T
    grads.w_x += x.reshape(-1, xdim).T @ da.reshape(-1, 4 * dim)
    grads.w_h += hs[:, :-1].reshape(-1, dim).T @ da[:, 1:].reshape(-1, 4 * dim)
    grads.b += da.sum(axis=(0, 1))
    return da @ cell.w_x.T


def ref_bilstm_backward(dh2, cache, p, grads):
    cache_fw, cache_bw = cache
    dx = ref_cell_backward(dh2[:, :, :p.dim], cache_fw, p.fw, grads.fw)
    dx_rev = ref_cell_backward(dh2[:, ::-1, p.dim:], cache_bw, p.bw, grads.bw)
    return dx + dx_rev[:, ::-1]


def ref_pool_backward(dpooled, num, l):
    g, twow = dpooled.shape
    w = twow // 2
    dhbar = np.zeros((g, l, w))
    dhbar[:, 0] = dpooled[:, :w]
    dhbar[:, 1:] = dpooled[:, None, w:] / (l - 1)
    return np.broadcast_to(dhbar[:, None], (g, num, l, w)) / num


def ref_forward(seqs, feats, p, use_bilstm):
    """Per-sequence states (B, L, width) of (B, L) id sequences, and the cache."""
    x, enc_cache = ref_encode_batch(seqs, feats, p)
    if not use_bilstm:
        return x, (enc_cache, None)
    h, lstm_cache = ref_bilstm_batch(x, p)
    return h, (enc_cache, lstm_cache)


def ref_backward(dh, cache, p):
    """The EmbedParams gradient of sum(states * dh)."""
    enc_cache, lstm_cache = cache
    grads = EmbedParams.zeros(p.m, p.x, p.dim)
    dx = dh if lstm_cache is None else ref_bilstm_backward(dh, lstm_cache, p, grads)
    ref_encode_backward(dx, enc_cache, p, grads)
    return grads


def ref_embed(seqs, feats, p, use_bilstm, dpooled):
    """Pooled embeddings of (G, num, L) id sequences and the EmbedParams
    gradient of sum(pooled * dpooled), on the reference layout."""
    g, num, l = seqs.shape
    h, cache = ref_forward(seqs.reshape(g * num, l), feats, p, use_bilstm)
    w = h.shape[-1]
    pooled = ref_pool_batch(h.reshape(g, num, l, w))
    dh = ref_pool_backward(dpooled, num, l).reshape(g * num, l, w)
    return pooled, ref_backward(dh, cache, p)


def indexed_states(seqs, nodes, feats, p, dh_rng):
    """BiLSTM states of ``nodes``' sequences stepped over the prefix index, as
    training runs them but before pooling, (B, L, 2*dim); and the gradient
    of sum(states * dh) for a random ``dh``, with the ``dh`` it used."""
    _, num, l = seqs.shape
    flat = seqs[nodes].reshape(-1, l)
    rows = (nodes[:, None] * num + np.arange(num)).ravel()
    every = seqs.reshape(-1, l)
    levels = (PrefixIndex(every).levels(flat, rows),
              PrefixIndex(every[:, ::-1]).levels(flat[:, ::-1], rows))
    enc, enc_cache = _encode_batch(flat, feats, p)
    h2, cache = _bilstm_batch(enc, levels, p, Workspace())
    dh2 = dh_rng.normal(size=h2.shape)
    grads = EmbedParams.zeros(p.m, p.x, p.dim)
    _encode_backward(_bilstm_backward(dh2, cache, p, grads), enc_cache, p, grads)
    return h2.transpose(2, 0, 1), grads, dh2.transpose(2, 0, 1)


# (length, num, mode); pooling needs two positions, so length 1 checks the
# BiLSTM states below it, which NoBiLSTM does not have
REFERENCE_CASES = [(length, num, mode) for length in (1, 2, 3, 4) for num in (1, 3)
                   for mode in ("full", "NoBiLSTM") if length > 1 or mode == "full"]


@pytest.mark.parametrize("length, num, mode", REFERENCE_CASES)
def test_encoder_matches_reference_layout(length, num, mode):
    net = synth_grid_network(2, 3, seed=4)
    rng = np.random.default_rng(100 * length + num)
    walks = sample_walks(net, normalized_views(net),
                         WalkConfig(alpha=0.0, num=num, length=max(length, 2), seed=length))
    cases = {
        # few distinct vertex ids, so every batch repeats ids within and across sequences
        "random": rng.integers(0, net.n + net.m, size=(net.n, num, length)),
        # every sequence of a node identical: one entry per node at every level
        "repeated": np.repeat(rng.integers(0, net.n + net.m, size=(net.n, 1, length)), num, axis=1),
        # (node, attribute, node, attribute): prefixes shared within a node, suffixes across nodes
        "walks": walks.sequences[:, :, :length],
    }
    p = EmbedParams.init(net.m, x=5, dim=2, seed=length)
    variant = apply_ablation(mode)
    width = embedding_width(variant, net.m, p.x, p.dim)
    feats = vertex_features(minmax_scale_columns(net.A))
    nodes = np.array([4, 0, 5, 2])
    for kind, seqs in cases.items():
        if length == 1:
            got, grads, dh = indexed_states(seqs, nodes, feats, p, rng)
            want, cache = ref_forward(seqs[nodes].reshape(-1, 1), feats, p, True)
            ref_grads = ref_backward(dh, cache, p)
        else:
            ss = SampleSet(sequences=seqs, n=net.n, m=net.m,
                           config=WalkConfig(alpha=0.5, num=num, length=length, seed=0))
            scorer = PairScorer(net, ss, p, RankerParams.zeros(width), variant)
            dpooled = rng.normal(size=(nodes.size, width))
            got, cache = scorer.node_embeddings(nodes, with_cache=True)
            grads = EmbedParams.zeros(p.m, p.x, p.dim)
            scorer._embed_backward(dpooled, cache, grads)
            want, ref_grads = ref_embed(seqs[nodes], feats, p, variant.use_bilstm, dpooled)
        npt.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=kind)
        expected = ref_grads.tensors()
        for name, g in grads.tensors().items():
            npt.assert_allclose(g, expected[name], rtol=0, atol=1e-12, err_msg=f"{kind} {name}")
        assert np.abs(grads.w_in).max() > 0, kind


def test_indexed_embeddings_equal_the_chunked_path():
    """Training's batch over the prefix index and the forward-only path
    over NODE_CHUNK nodes at a time give the same bits, on real walks."""
    net = synth_grid_network(9, 9, seed=2)
    assert net.n > NODE_CHUNK
    ss = sample_walks(net, normalized_views(net), WalkConfig(alpha=1e-4, num=20, length=4, seed=5))
    p = EmbedParams.init(net.m, x=8, dim=2, seed=6)
    scorer = PairScorer(net, ss, p, RankerParams.zeros(p.hdim), apply_ablation("full"))
    for nodes in (np.random.default_rng(0).permutation(net.n), np.arange(3, net.n, 2)):
        indexed, _ = scorer.node_embeddings(nodes, with_cache=True)
        chunked, _ = scorer.node_embeddings(nodes)
        assert indexed.tobytes() == chunked.tobytes()


@pytest.mark.parametrize("mode", ["full", "NoMG"])
def test_a_reused_workspace_gives_a_fresh_scorers_bits(mode):
    """A training scorer's batches and forward-only passes write into one
    workspace.  After a small batch, a large one and a small one again, each
    followed by a forward-only pass over every node, its loss, gradients and
    ratings for batch B must be a fresh scorer's, bit for bit: nothing an
    earlier pass left in the buffers, or their layout, may reach a later
    one."""
    net = synth_grid_network(6, 6, seed=2)
    variant = apply_ablation(mode)
    alpha = 1e-4 if variant.sample_alpha is None else variant.sample_alpha
    ss = sample_walks(net, normalized_views(net), WalkConfig(alpha=alpha, num=20, length=4, seed=5))
    p = EmbedParams.init(net.m, x=8, dim=2, seed=6)
    ranker = RankerParams.init(p.hdim, seed=7)
    rng = np.random.default_rng(3)
    small, large, b = ((pi, pj, (pi < pj).astype(float))
                       for pi, pj in (rng.integers(0, net.n, size=(2, k)) for k in (3, 200, 40)))
    used = PairScorer(net, ss, p, ranker, variant)
    every = np.arange(net.n)
    for batch in (small, large, small):
        used.loss_and_grads(*batch)
        # validation's forward-only pass writes into the same workspace
        got = used.node_embeddings(every)[0]
        assert got.tobytes() == PairScorer(net, ss, p, ranker, variant).node_embeddings(
            every)[0].tobytes()
    got = used.loss_and_grads(*b)
    want = PairScorer(net, ss, p, ranker, variant).loss_and_grads(*b)
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    assert got[1].keys() == want[1].keys()
    for name, g in want[1].items():
        assert got[1][name].tobytes() == g.tobytes(), name
    assert got[2].tobytes() == want[2].tobytes()


def test_a_training_batch_allocates_each_slot_once(monkeypatch):
    """Each pass sizes the workspace slots it writes, and the first
    training batch must still allocate each slot once, at the size the
    whole batch needs; the same batch again allocates none.  A step slot
    that the forward pass sizes and the backward pass grows again fails
    here."""
    net = synth_grid_network(6, 6, seed=2)
    ss = sample_walks(net, normalized_views(net), WalkConfig(alpha=1e-4, num=20, length=4, seed=5))
    p = EmbedParams.init(net.m, x=8, dim=2, seed=6)
    scorer = PairScorer(net, ss, p, RankerParams.init(p.hdim, seed=7), apply_ablation("full"))
    pi, pj = np.random.default_rng(3).integers(0, net.n, size=(2, 40))
    buffers = {}  # slot name -> every buffer it has held
    views = Workspace.views

    def recording_views(ws, name, *args):
        out = views(ws, name, *args)
        seen = buffers.setdefault(name, [])
        if not any(b is ws._slots[name] for b in seen):
            seen.append(ws._slots[name])
        return out

    monkeypatch.setattr(Workspace, "views", recording_views)
    for _ in range(2):
        scorer.loss_and_grads(pi, pj, (pi < pj).astype(float))
        assert {name: len(seen) for name, seen in buffers.items()} == {
            "fw": 1, "bw": 1, "step": 1, "states": 1}
