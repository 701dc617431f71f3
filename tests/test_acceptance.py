"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -s`` to watch them)."""

import time

import numpy as np

import roadrank as rr
from roadrank.alias import build_alias, reconstruct
from roadrank.cli import main as cli_main
from roadrank.metrics import labelled_pairs, micro_macro_f1
from roadrank.model import PairScorer, apply_ablation
from roadrank.training import gradient_check, make_pairs

from test_baselines import brute_force_betweenness, net_from_edges
from test_graph import normalize_adjacency


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_1_gradient_oracle():
    start = time.monotonic()
    worst = 0.0
    instances = [(2, 3, 0, 3), (2, 4, 1, 2), (3, 3, 2, 3), (2, 5, 3, 2), (2, 2, 4, 3)]
    for rows, cols, seed, num in instances:
        net = rr.synth_grid_network(rows, cols, seed=seed)
        views = rr.normalized_views(net)
        samples = rr.sample_walks(net, views, rr.WalkConfig(0.5, num, 4, seed + 10))
        scores = rr.generate_ground_truth(net, rr.CascadeConfig())
        embed = rr.EmbedParams.init(net.m, 8, 2, seed + 20)  # hdim = 8
        ranker = rr.RankerParams.init(embed.hdim, seed=seed + 30)
        scorer = PairScorer(net, samples, embed, ranker, apply_ablation("full"))
        report = gradient_check(scorer, *make_pairs(range(net.n), scores).T)
        worst = max(worst, report.worst)
    elapsed = time.monotonic() - start
    _report(1, "gradient oracle", worst < 1e-4 and elapsed < 60.0,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_sampler_law():
    start = time.monotonic()
    net = rr.synth_grid_network(4, 5, seed=2)  # 20 nodes
    views = rr.normalized_views(net)
    origin = 7
    walks = 100_000
    worst_tv = 0.0
    for alpha in (0.0, 0.5, 1.0):
        cfg = rr.WalkConfig(alpha=alpha, num=walks, length=2, seed=31)
        first_steps = rr.sample_walks(net, views, cfg).sequences[origin, :, 1]
        counts = np.bincount(first_steps, minlength=net.n + net.m)
        analytic = np.zeros(net.n + net.m)
        analytic[:net.n] = alpha * rr.node_step_distribution(origin, views)
        analytic[net.n:] = (1 - alpha) * rr.node_to_attr_distribution(origin, views)
        tv = 0.5 * np.abs(counts / walks - analytic).sum()
        worst_tv = max(worst_tv, tv)
    pure = rr.sample_walks(net, views, rr.WalkConfig(1.0, 20, 4, 5))
    nodes_only = pure.sequences.max() < net.n
    elapsed = time.monotonic() - start
    _report(2, "sampler law", worst_tv <= 0.01 and nodes_only and elapsed < 30.0,
            f"worst TV {worst_tv:.4f}, nodes-only at alpha=1: {nodes_only}, {elapsed:.1f}s")


def test_criterion_3_alias_exactness():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        size = int(rng.integers(1, 65))
        p = rng.uniform(1e-9, 1.0, size=size)
        p /= p.sum()
        p /= p.sum()
        err = np.abs(reconstruct(build_alias(p)) - p).max()
        worst = max(worst, err)
    _report(3, "alias exactness", worst < 1e-12, f"worst entry err {worst:.2e}")


def test_criterion_4_metric_oracles():
    scores = np.array([9.0, 7.0, 5.0, 1.0])
    ok = rr.diff_metric([0, 1, 2, 3], scores) == 0.0
    ok &= abs(rr.diff_metric([3, 2, 1, 0], scores) - 1.0) < 1e-12
    ok &= abs(rr.diff_metric([1, 0, 2, 3], scores) - 0.25) < 1e-12
    rng = np.random.default_rng(12)
    micro_ok = True
    for _ in range(100):
        k = int(rng.integers(1, 50))
        pred = rng.integers(0, 2, size=k)
        true = rng.integers(0, 2, size=k)
        micro, _ = micro_macro_f1(pred, true)
        micro_ok &= abs(micro - (pred == true).mean()) < 1e-12
    _report(4, "metric oracles", bool(ok and micro_ok))


def test_criterion_5_baseline_oracles():
    rng = np.random.default_rng(77)
    bc_ok = True
    for _ in range(50):
        n = int(rng.integers(2, 13))
        p = rng.uniform(0.15, 0.5)
        edges = [(i, j) for i in range(n) for j in range(n)
                 if i != j and rng.random() < p]
        net = net_from_edges(n, edges)
        got = rr.betweenness_centrality(net)
        want = brute_force_betweenness(net)
        bc_ok &= bool(np.allclose(got, want, atol=1e-9))
    pr_ok = True
    for seed in range(5):
        net = rr.synth_grid_network(3, 3, seed=seed)
        p = rr.pagerank(net, tol=1e-12)
        mbar = normalize_adjacency(net)
        residual = np.abs(p - (0.85 * mbar @ p + 0.15 / net.n)).sum()
        pr_ok &= residual < 1e-9 and abs(p.sum() - 1.0) < 1e-9
    _report(5, "baseline oracles", bc_ok and pr_ok)


def test_criterion_6_decayed_score_oracle():
    got = rr.importance_score([2, 1], 0.9)
    ok = abs(got - 2.61) < 1e-12 and rr.importance_score([0, 0, 0, 0], 0.9) == 0.0
    _report(6, "decayed score oracle", ok, f"score {got!r}")


def test_criterion_7_learnable_task_threshold():
    start = time.monotonic()
    net = rr.synth_grid_network(8, 7, seed=2)  # 56 nodes
    views = rr.normalized_views(net)
    samples = rr.sample_walks(net, views, rr.WalkConfig(0.0001, 150, 4, 9))
    vol = net.A[:, list(net.attr_names).index("vol")]
    scores = 2.0 * vol + 5.0  # fixed monotone function of an attribute
    cfg = rr.TrainConfig(seed=4)  # lr 1e-3, batch 64, epochs 100, hdim 8, dropout 0.45
    splits = rr.stratified_split(scores, cfg)
    result = rr.train_model(net, samples, scores, splits, cfg)

    scorer = PairScorer(net, samples, result.embed, result.ranker, apply_ablation("full"))
    test = sorted(splits.test)
    _, _, truth = labelled_pairs(test, scores)
    off = ~np.eye(len(test), dtype=bool)  # rating_matrix's off-diagonal is labelled_pairs' order
    predicted = (scorer.rating_matrix(test)[off] > 0.5).astype(int)
    micro, _ = micro_macro_f1(predicted, truth)

    _, _, dc_predicted = labelled_pairs(test, rr.degree_centrality(net))
    dc_micro, _ = micro_macro_f1(dc_predicted, truth)
    elapsed = time.monotonic() - start
    _report(7, "learnable-task threshold",
            micro >= 0.90 and micro >= dc_micro and elapsed < 600.0,
            f"test micro {micro:.4f} vs DC {dc_micro:.4f}, {elapsed:.0f}s")


def test_criterion_8_ablation_ordering():
    modes = ("full", "NoMG", "NoBiLSTM", "NoEmb")
    means = {}
    raw = {m: [] for m in modes}
    for seed in (0, 1, 2):
        net = rr.synth_grid_network(5, 5, seed=seed)
        views = rr.normalized_views(net)
        samples_by_alpha = {
            0.0001: rr.sample_walks(net, views, rr.WalkConfig(0.0001, 150, 4, seed)),
            1.0: rr.sample_walks(net, views, rr.WalkConfig(1.0, 150, 4, seed)),
        }
        scores = rr.generate_ground_truth(net, rr.CascadeConfig())
        for mode in modes:
            cfg = rr.TrainConfig(seed=seed, ablation=mode)
            splits = rr.stratified_split(scores, cfg)
            variant = apply_ablation(mode)
            if variant.use_embedding:
                alpha = variant.sample_alpha if variant.sample_alpha is not None else 0.0001
                samples = samples_by_alpha[alpha]
            else:
                samples = None
            result = rr.train_model(net, samples, scores, splits, cfg)
            raw[mode].append(result.best_val_micro)
    for mode in modes:
        means[mode] = float(np.mean(raw[mode]))
    margins = {m: means["full"] - means[m] for m in modes if m != "full"}
    ordered = all(means["full"] >= means[m] for m in modes if m != "full")
    detail = ", ".join(f"{m} {means[m]:.4f} (margin {margins.get(m, 0.0):+.4f})"
                       for m in modes if m != "full")
    _report(8, "ablation ordering", ordered, f"full {means['full']:.4f} vs {detail}")


def test_criterion_9_determinism(tmp_path):
    def run_stage(args):
        assert cli_main(args) == 0

    artifacts = []
    for name in ("a", "b"):
        base = tmp_path / name
        base.mkdir()
        net = base / "net"
        scores = base / "scores.csv"
        samples = base / "samples.txt"
        ckpt = base / "model.ckpt"
        ranking = base / "ranking.csv"
        baseline = base / "dc.csv"
        report = base / "report.txt"
        grad = base / "grad.txt"
        cfgfile = base / "train.cfg"
        cfgfile.write_text("epochs=2\nstrata=2\nseed=3\n")
        run_stage(["synth", "--rows", "4", "--cols", "3", "--seed", "1", "--out", str(net)])
        run_stage(["generate", "--network", str(net), "--out", str(scores)])
        run_stage(["sample", "--network", str(net), "--num", "5", "--seed", "2",
                   "--out", str(samples)])
        run_stage(["train", "--network", str(net), "--scores", str(scores),
                   "--samples", str(samples), "--config", str(cfgfile),
                   "--out", str(ckpt)])
        run_stage(["rank", "--network", str(net), "--ckpt", str(ckpt),
                   "--samples", str(samples), "--out", str(ranking)])
        run_stage(["baseline", "--method", "dc", "--network", str(net),
                   "--out", str(baseline)])
        run_stage(["eval", "--ranking", str(ranking), "--truth", str(scores),
                   "--out", str(report)])
        run_stage(["gradcheck", "--seed", "5", "--out", str(grad)])
        artifacts.append({
            "edges": (net / "edges.csv").read_bytes(),
            "attrs": (net / "attributes.csv").read_bytes(),
            "scores": scores.read_bytes(),
            "samples": samples.read_bytes(),
            "ckpt": ckpt.read_bytes(),
            "history": (base / "model.ckpt.history.csv").read_bytes(),
            "splits": (base / "model.ckpt.splits.csv").read_bytes(),
            "ranking": ranking.read_bytes(),
            "baseline": baseline.read_bytes(),
            "report": report.read_bytes(),
            "grad": grad.read_bytes(),
        })
    mismatched = [k for k in artifacts[0] if artifacts[0][k] != artifacts[1][k]]
    _report(9, "determinism", not mismatched,
            f"byte-identical: {sorted(artifacts[0])}" if not mismatched
            else f"mismatch in {mismatched}")
