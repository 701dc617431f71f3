import numpy as np
import numpy.testing as npt
import pytest

from roadrank.encoder import EmbedParams
from roadrank.graph import ValidationError, normalized_views
from roadrank.model import PairScorer, apply_ablation, embedding_width
from roadrank.ranker import RankerParams
from roadrank.synth import synth_grid_network
from roadrank.training import (Adam, SplitAssignment, TrainConfig, gradient_check,
                               make_pairs, stratified_split, train_model)
from roadrank.walks import WalkConfig, sample_walks


def grid_task(rows=4, cols=5, seed=2, alpha=0.0001, num=150):
    net = synth_grid_network(rows, cols, seed=seed)
    views = normalized_views(net)
    samples = sample_walks(net, views, WalkConfig(alpha, num, 4, seed + 1))
    scores = net.A[:, list(net.attr_names).index("vol")].copy()
    return net, samples, scores


def test_config_validation():
    with pytest.raises(ValidationError):
        TrainConfig(train_frac=0.5, val_frac=0.2, test_frac=0.2)
    with pytest.raises(ValidationError, match="split fractions"):
        TrainConfig(train_frac=1.2, val_frac=-0.1, test_frac=-0.1)
    with pytest.raises(ValidationError):
        TrainConfig(dropout=1.0)
    with pytest.raises(ValidationError):
        TrainConfig(lr=-0.1)
    with pytest.raises(ValidationError):
        TrainConfig(hdim=10)
    with pytest.raises(ValidationError):
        TrainConfig(ablation="NoSuchThing")
    assert TrainConfig(hdim=8).dim == 2


@pytest.mark.parametrize("field, value, message", [
    ("lr", float("nan"), "lr"), ("lr", float("inf"), "lr"), ("lr", -1e-3, "lr"),
    ("beta1", float("nan"), "beta1"), ("beta1", 1.0, "beta1"), ("beta1", -0.1, "beta1"),
    ("beta2", float("nan"), "beta2"), ("beta2", 1.0, "beta2"),
    ("eps", float("nan"), "eps"), ("eps", float("inf"), "eps"), ("eps", 0.0, "eps"),
    ("train_frac", float("nan"), "split fractions"), ("seed", -1, "seed"),
])
def test_config_rejects_non_finite_and_out_of_range(field, value, message):
    with pytest.raises(ValidationError, match=message):
        TrainConfig(**{field: value})


def test_split_single_stratum_sizes():
    scores = np.arange(100, dtype=float)
    splits = stratified_split(scores, TrainConfig(strata=1, seed=3))
    assert (len(splits.train), len(splits.val), len(splits.test)) == (70, 15, 15)


def test_split_five_strata_bin_contributions():
    scores = np.arange(100, dtype=float)
    cfg = TrainConfig(strata=5, seed=3)
    splits = stratified_split(scores, cfg)
    for b in range(5):
        members = [v for v, s in splits.stratum.items() if s == b]
        assert len(members) == 20
        assert len([v for v in splits.train if splits.stratum[v] == b]) == 14
        assert len([v for v in splits.val if splits.stratum[v] == b]) == 3
        assert len([v for v in splits.test if splits.stratum[v] == b]) == 3
    # quantile bins: every score in bin b is below every score in bin b+1
    for b in range(4):
        lo = max(scores[v] for v, s in splits.stratum.items() if s == b)
        hi = min(scores[v] for v, s in splits.stratum.items() if s == b + 1)
        assert lo < hi


def test_split_deterministic_and_disjoint():
    rng = np.random.default_rng(0)
    for trial in range(5):
        n = int(rng.integers(10, 60))
        scores = rng.uniform(0, 10, size=n)
        cfg = TrainConfig(strata=3, seed=trial)
        a = stratified_split(scores, cfg)
        b = stratified_split(scores, cfg)
        assert a == b
        union = set(a.train) | set(a.val) | set(a.test)
        assert union == set(range(n))
        assert len(a.train) + len(a.val) + len(a.test) == n


def test_split_reduces_strata_with_warning():
    scores = np.arange(8, dtype=float)
    with pytest.warns(UserWarning, match="reducing strata"):
        splits = stratified_split(scores, TrainConfig(strata=5, seed=0))
    assert set(splits.train) | set(splits.val) | set(splits.test) == set(range(8))


def test_make_pairs():
    pairs = make_pairs([7, 3], np.array([0, 0, 0, 5.0, 0, 0, 0, 3.0]))
    assert pairs.tolist() == [[3, 7, 1], [7, 3, 0]]
    many = make_pairs(range(10), np.arange(10, dtype=float))
    assert len(many) == 90
    # a 64-node test split yields 4032 ordered pairs
    assert len(make_pairs(range(64), np.arange(64, dtype=float))) == 64 * 63
    with pytest.raises(ValidationError):
        make_pairs([1], np.array([0.0, 1.0]))


def test_apply_ablation_modes():
    assert apply_ablation("full").use_bilstm
    assert apply_ablation("NoMG").sample_alpha == 1.0
    assert not apply_ablation("NoBiLSTM").use_bilstm
    assert not apply_ablation("NoEmb").use_embedding
    with pytest.raises(ValidationError, match="unknown ablation"):
        apply_ablation("nope")
    assert embedding_width(apply_ablation("full"), m=5, x=8, dim=2) == 8
    assert embedding_width(apply_ablation("NoBiLSTM"), m=5, x=8, dim=2) == 16
    assert embedding_width(apply_ablation("NoEmb"), m=5, x=8, dim=2) == 5


def test_adam_lr_zero_is_identity():
    t = {"w": np.array([1.0, -2.0])}
    adam = Adam(t, lr=0.0)
    adam.step({"w": np.array([5.0, 5.0])})
    npt.assert_array_equal(t["w"], [1.0, -2.0])


def test_adam_step_through_scorer_tensors_moves_packed_weights():
    net, samples, scores = grid_task(rows=2, cols=3, seed=1, num=3)
    embed = EmbedParams.init(net.m, 8, 2, 11)
    scorer = PairScorer(net, samples, embed, RankerParams.init(8, seed=12),
                        apply_ablation("full"))
    tensors = scorer.tensors()
    assert np.shares_memory(tensors["embed.fw.w_xc"], embed.fw.w_x)
    before = embed.fw.w_x.copy()
    adam = Adam(tensors, lr=0.01)
    _, grads, _ = scorer.loss_and_grads(*make_pairs(range(net.n), scores).T)
    adam.step(grads)
    assert (embed.fw.w_x != before).all()


def test_train_lr_zero_leaves_params():
    net, samples, scores = grid_task()
    cfg = TrainConfig(seed=1, epochs=2, lr=0.0, dropout=0.0)
    splits = stratified_split(scores, cfg)
    embed = EmbedParams.init(net.m, cfg.x, cfg.dim, 11)
    ranker = RankerParams.init(cfg.hdim, seed=12)
    e0 = embed.copy()
    r0 = ranker.copy()
    result = train_model(net, samples, scores, splits, cfg,
                         init_embed=embed, init_ranker=ranker)
    for name, arr in result.embed.tensors().items():
        npt.assert_array_equal(arr, e0.tensors()[name])
    for name, arr in result.ranker.tensors().items():
        npt.assert_array_equal(arr, r0.tensors()[name])


def test_train_deterministic_history():
    net, samples, scores = grid_task()
    cfg = TrainConfig(seed=5, epochs=3)
    splits = stratified_split(scores, cfg)
    a = train_model(net, samples, scores, splits, cfg)
    b = train_model(net, samples, scores, splits, cfg)
    assert a.history == b.history
    for name, arr in a.ranker.tensors().items():
        npt.assert_array_equal(arr, b.ranker.tensors()[name])


def test_train_divergence_aborts_with_location():
    net, samples, scores = grid_task()
    cfg = TrainConfig(seed=1, epochs=1)
    splits = stratified_split(scores, cfg)
    embed = EmbedParams.init(net.m, cfg.x, cfg.dim, 11)
    ranker = RankerParams.init(cfg.hdim, seed=12)
    ranker.w_out[0] = np.nan
    with pytest.raises(RuntimeError, match="epoch 1, batch 1"):
        train_model(net, samples, scores, splits, cfg,
                    init_embed=embed, init_ranker=ranker)


def test_train_refuses_a_validation_split_under_two_nodes():
    """Checkpoint selection compares pairs of validation nodes: a split
    with 0 or 1 of them is refused, naming the count."""
    net, samples, scores = grid_task(rows=2, cols=3, seed=1, num=3)
    cfg = TrainConfig(seed=2, epochs=1, strata=2)
    splits = stratified_split(scores, cfg)
    assert splits.val == ()
    one = SplitAssignment(train=splits.train, val=splits.test[:1], test=splits.test[1:],
                          stratum=splits.stratum)
    for split, count in ((splits, 0), (one, 1)):
        with pytest.raises(ValidationError, match=f"validation split holds {count} node"):
            train_model(net, samples, scores, split, cfg)


def test_learnable_sanity_task():
    """Score is a monotone function of one attribute: the model must beat
    it comfortably (final loss well below the initial, val micro >= 0.9)."""
    net, samples, scores = grid_task()
    cfg = TrainConfig(seed=4, epochs=60, lr=0.003)
    splits = stratified_split(scores, cfg)
    result = train_model(net, samples, scores, splits, cfg)
    assert result.history[-1]["train_loss"] < result.history[0]["train_loss"]
    assert result.history[-1]["train_loss"] < 0.5 * result.history[0]["train_loss"]
    assert result.best_val_micro >= 0.9


def test_gradient_check_small_instance():
    net, samples, scores = grid_task(rows=2, cols=3, seed=3, alpha=0.5, num=3)
    embed = EmbedParams.init(net.m, 8, 2, 5)
    ranker = RankerParams.init(embed.hdim, seed=6)
    scorer = PairScorer(net, samples, embed, ranker, apply_ablation("full"))
    pi, pj, py = make_pairs(range(net.n), scores).T
    report = gradient_check(scorer, pi, pj, py)
    assert report.worst < 1e-4
    assert set(report.per_tensor) == set(scorer.tensors())


def test_gradient_check_zero_params():
    net, samples, scores = grid_task(rows=2, cols=2, seed=7, alpha=0.5, num=2)
    embed = EmbedParams.zeros(net.m, 4, 2)
    ranker = RankerParams.zeros(embed.hdim)
    scorer = PairScorer(net, samples, embed, ranker, apply_ablation("full"))
    report = gradient_check(scorer, *make_pairs(range(net.n), scores).T)
    assert report.worst < 1e-8


def test_noemb_train_has_no_embed_params(tmp_path):
    net, samples, scores = grid_task()
    cfg = TrainConfig(seed=2, epochs=2, ablation="NoEmb")
    splits = stratified_split(scores, cfg)
    result = train_model(net, None, scores, splits, cfg)
    assert result.embed is None
    from roadrank.checkpoint import load_checkpoint, save_checkpoint
    path = tmp_path / "ckpt.txt"
    save_checkpoint(path, result.embed, result.ranker,
                    {"variant": "NoEmb", "m": net.m, "x": cfg.x, "dim": cfg.dim,
                     "hdim": cfg.hdim, "seed": cfg.seed,
                     "input_dim": result.ranker.input_dim})
    assert "embed." not in path.read_text()
    embed, ranker, meta = load_checkpoint(path)
    assert embed is None
    assert ranker.input_dim == net.m


def test_checkpoint_roundtrip_full(tmp_path):
    net, samples, scores = grid_task(rows=3, cols=4, seed=1, num=3)
    cfg = TrainConfig(seed=2, epochs=1, strata=2)
    splits = stratified_split(scores, cfg)
    result = train_model(net, samples, scores, splits, cfg)
    from roadrank.checkpoint import load_checkpoint, save_checkpoint
    path = tmp_path / "ckpt.txt"
    meta = {"variant": "full", "m": net.m, "x": cfg.x, "dim": cfg.dim,
            "hdim": cfg.hdim, "seed": cfg.seed, "f1": cfg.f1, "f2": cfg.f2,
            "rdim": cfg.rdim, "input_dim": result.ranker.input_dim}
    save_checkpoint(path, result.embed, result.ranker, meta)
    embed, ranker, meta2 = load_checkpoint(path)
    for name, arr in result.embed.tensors().items():
        npt.assert_array_equal(embed.tensors()[name], arr)  # repr round-trips exactly
    for name, arr in result.ranker.tensors().items():
        npt.assert_array_equal(ranker.tensors()[name], arr)
    assert meta2["variant"] == "full"
