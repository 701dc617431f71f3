import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import roadrank
from roadrank.cli import EXIT_OK, main
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
    abar = normalized_views(net)
    samples = sample_walks(net, abar, WalkConfig(alpha, num, 4, seed + 1))
    scores = net.A[:, list(net.attr_names).index("vol")].copy()
    return net, samples, scores


def test_config_validation():
    with pytest.raises(ValidationError):
        TrainConfig(train_frac=0.9, val_frac=0.2)
    with pytest.raises(ValidationError, match="split fractions"):
        TrainConfig(train_frac=0.5, val_frac=-0.1)
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
    w = np.array([1.0, -2.0])
    adam = Adam(w, lr=0.0)
    adam.step(np.array([5.0, 5.0]))
    npt.assert_array_equal(w, [1.0, -2.0])


def test_adam_step_through_scorer_tensors_moves_packed_weights():
    net, samples, scores = grid_task(rows=2, cols=3, seed=1, num=3)
    embed = EmbedParams.init(net.m, 8, 2, 11)
    scorer = PairScorer(net, samples, embed, RankerParams.init(8, seed=12),
                        apply_ablation("full"))
    tensors = scorer.tensors()
    assert np.shares_memory(tensors["embed.fw.w_xc"], scorer.embed.fw.w_x)
    assert all(t.base is scorer.params for t in vars(scorer.embed.fw).values())
    assert sum(t.size for t in tensors.values()) == scorer.params.size
    before = scorer.embed.fw.w_x.copy()
    adam = Adam(scorer.params, lr=0.01)
    scorer.loss_and_grads(*make_pairs(range(net.n), scores).T)
    adam.step(scorer.gradient)
    assert (scorer.embed.fw.w_x != before).all()


def test_scorers_own_their_parameters():
    """Two scorers built on one parameter set train independently, and
    neither moves the set; nor does training move its initial values."""
    net, samples, scores = grid_task(rows=3, cols=4, seed=1, num=3)
    embed = EmbedParams.init(net.m, 8, 2, 11)
    ranker = RankerParams.init(8, seed=12)
    e0, r0 = embed.copy(), ranker.copy()
    batch = make_pairs(range(net.n), scores).T
    first, second = (PairScorer(net, samples, embed, ranker, apply_ablation("full"))
                     for _ in range(2))
    loss, _, _ = second.loss_and_grads(*batch)
    adam = Adam(first.params, lr=0.01)
    for _ in range(3):
        first.loss_and_grads(*batch)
        adam.step(first.gradient)
    assert first.loss_and_grads(*batch)[0] < loss  # the first steps on its own weights
    assert second.loss_and_grads(*batch)[0] == loss  # the second is not moved by them

    def unchanged():
        for got, want in ((embed, e0), (ranker, r0)):
            for name, t in want.tensors().items():
                assert got.tensors()[name].tobytes() == t.tobytes(), name

    unchanged()
    cfg = TrainConfig(seed=1, epochs=2, dropout=0.0, strata=1)
    result = train_model(net, samples, scores, stratified_split(scores, cfg), cfg,
                         init_embed=embed, init_ranker=ranker)
    assert result.embed is not embed and result.ranker is not ranker
    assert any(t.tobytes() != e0.tensors()[name].tobytes()
               for name, t in result.embed.tensors().items())
    unchanged()


class PerTensorAdam:
    """Adam as a loop over named tensors, eight operations per tensor: the
    oracle of the one-vector update."""

    def __init__(self, tensors, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.tensors, self.lr, self.beta1, self.beta2, self.eps = tensors, lr, beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in tensors.items()}
        self.v = {k: np.zeros_like(v) for k, v in tensors.items()}

    def step(self, grads):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for key, g in grads.items():
            m = self.m[key]
            v = self.v[key]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            self.tensors[key] -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


@pytest.mark.parametrize("mode", ["full", "NoEmb"])
def test_one_vector_adam_matches_the_per_tensor_loop_bit_for_bit(mode):
    net, samples, scores = grid_task(rows=2, cols=3, seed=1, num=3)
    variant = apply_ablation(mode)
    width = embedding_width(variant, net.m, 8, 2)

    def scorer():
        embed = EmbedParams.init(net.m, 8, 2, 11) if variant.use_embedding else None
        return PairScorer(net, samples, embed, RankerParams.init(width, seed=12), variant)

    flat, ref = scorer(), scorer()
    _, grads, _ = flat.loss_and_grads(*make_pairs(range(net.n), scores).T)  # views of flat.gradient
    adam = Adam(flat.params, lr=0.01, beta1=0.8, beta2=0.99, eps=1e-6)
    oracle = PerTensorAdam(ref.tensors(), lr=0.01, beta1=0.8, beta2=0.99, eps=1e-6)
    rng = np.random.default_rng(3)
    for _ in range(20):
        flat.gradient[...] = rng.normal(scale=rng.uniform(1e-3, 10.0), size=flat.gradient.size)
        adam.step(flat.gradient)
        oracle.step(grads)
        for name, t in ref.tensors().items():
            assert flat.tensors()[name].tobytes() == t.tobytes(), name


def test_a_second_batch_allocates_no_gradient_array():
    net, samples, scores = grid_task(rows=3, cols=3, seed=1, num=4)
    pairs = make_pairs(range(net.n), scores)
    first, second = pairs[::2].T, pairs[1::2].T

    def scorer():
        return PairScorer(net, samples, EmbedParams.init(net.m, 8, 2, 11),
                          RankerParams.init(8, seed=12), apply_ablation("full"))

    used = scorer()
    gradient = used.gradient
    used.loss_and_grads(*first)
    _, grads, _ = used.loss_and_grads(*second)
    assert used.gradient is gradient
    assert all(g.base is gradient for g in grads.values())
    # zero-filled per batch: the second batch's gradients are a fresh scorer's
    _, want, _ = scorer().loss_and_grads(*second)
    for name, g in grads.items():
        assert g.tobytes() == want[name].tobytes(), name


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


# the minor page faults of a fresh process's 75 batches after the first,
# counted after each Adam step
FAULTS_OF_ONE_EPOCH = """
import resource, sys
from roadrank import cli, training
faults, step = [], training.Adam.step
def counted(self, grad):
    step(self, grad)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
training.Adam.step = counted
assert cli.main(sys.argv[1:]) == 0
print(len(faults), faults[-1] - faults[0])
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc's page reuse")
def test_a_fresh_epoch_keeps_its_batches_in_the_workspace(tmp_path):
    """``encoder.Workspace`` exists because glibc hands the pages of a
    freed large array back to the kernel, so a batch that allocates its
    LSTM arrays afresh faults them in again; ``tracemalloc`` cannot see
    that.  One fresh 10x10 epoch took 3,800-6,200 minor faults after its
    first batch with the workspace, 9,100-10,200 with a fresh step slot
    per level and 27,800-31,300 with every workspace view a fresh array
    (2-vCPU VM, Linux).  A tree reads the same count on every run, but
    edits elsewhere that shift the heap move it within those ranges."""
    net, scores, samples = tmp_path / "net", tmp_path / "scores.csv", tmp_path / "samples.txt"
    assert main(["synth", "--rows", "10", "--cols", "10", "--seed", "1", "--out", str(net)]) \
        == EXIT_OK
    assert main(["generate", "--network", str(net), "--out", str(scores)]) == EXIT_OK
    assert main(["sample", "--network", str(net), "--seed", "1", "--out", str(samples)]) \
        == EXIT_OK
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(roadrank.__file__).parents[1]),
                                                        os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", FAULTS_OF_ONE_EPOCH, "train", "--network", str(net),
         "--scores", str(scores), "--samples", str(samples), "--epochs", "1",
         "--out", str(tmp_path / "model.ckpt")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    batches, faults = map(int, proc.stdout.split()[-2:])
    assert batches == 76
    assert faults < 10_000
