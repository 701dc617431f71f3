"""``rank`` and ``eval`` stream: the encoder runs over node chunks, ratings
are reduced and written per row block, and the confusion counts are
counted, not enumerated.  These tests hold their output bytes to the
whole-matrix and pair-enumerating oracles, and their memory to fixed bounds."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from roadrank import model
from roadrank.cascade import ImportanceScores, import_scores, save_scores
from roadrank.checkpoint import load_checkpoint, save_checkpoint
from roadrank.cli import EXIT_OK, main
from roadrank.encoder import EmbedParams, sigmoid
from roadrank.graph import ValidationError, load_network_dir
from roadrank.metrics import (MetricReport, _f1_from_counts, confusion_counts, diff_metric,
                              labelled_pairs, report_for_ranking)
from roadrank.model import PairScorer, apply_ablation
from roadrank.ranker import RankerParams, pair_forward, rank_from_matrix
from roadrank.training import TrainConfig
from roadrank.walks import SampleSet, WalkConfig, load_samples, save_samples


def run(*argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# oracles: the whole rating matrix and every ordered pair listed
# ---------------------------------------------------------------------------

def oracle_rank(net_dir: Path, ckpt: Path, samples: Path, nodes) -> tuple[bytes, bytes]:
    """``ranking.csv`` and ``ratings.csv`` bytes from one encoder batch over
    every node (the training path), the whole rating matrix and
    :func:`rank_from_matrix`."""
    embed, ranker, _ = load_checkpoint(ckpt)
    scorer = PairScorer(load_network_dir(net_dir), load_samples(samples), embed, ranker,
                        apply_ablation("full"))
    h, _ = scorer.node_embeddings(nodes, with_cache=True)
    u, v, _ = pair_forward(h, ranker)
    matrix = sigmoid(u[:, None] + v[None, :] + ranker.b_out[0])
    result = rank_from_matrix(matrix, nodes)
    ranking = "rank,node_id,copeland,rating_sum\n" + "".join(
        f"{pos},{v},{result.copeland[v]},{result.rating_sum[v]!r}\n"
        for pos, v in enumerate(result.order, start=1))
    ratings = "i,j,rating\n" + "".join(
        f"{i},{j},{r!r}\n" for i, row in zip(nodes, matrix.tolist())
        for j, r in zip(nodes, row) if i != j)
    return ranking.encode(), ratings.encode()


def enumerated_report(ranking, scores, pair_nodes=None) -> MetricReport:
    """:func:`report_for_ranking` by listing every ordered pair of distinct
    ``pair_nodes`` with its label and its predicted label."""
    ranking = np.asarray([int(v) for v in ranking], dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    nodes = ranking if pair_nodes is None else np.asarray(pair_nodes, dtype=np.int64)
    position = np.full(scores.size, -1, dtype=np.int64)
    position[ranking] = np.arange(ranking.size)
    pi, pj, truth = labelled_pairs(nodes, scores)
    confusion = confusion_counts(position[pi] < position[pj], truth)
    micro, macro = _f1_from_counts(confusion)
    return MetricReport(micro_f1=micro, macro_f1=macro, diff=diff_metric(ranking, scores),
                        pairs=pi.size, confusion=confusion)


def oracle_report(ranking_csv: Path, truth_csv: Path, pair_nodes=None) -> bytes:
    ranking = np.loadtxt(ranking_csv, delimiter=",", skiprows=1, usecols=1, dtype=np.int64)
    report = enumerated_report(ranking, import_scores(truth_csv).aff, pair_nodes)
    return ("\n".join(report.lines()) + "\n").encode()


# ---------------------------------------------------------------------------
# input sets
# ---------------------------------------------------------------------------

def walk_shaped_set(work: Path, grid: int, seed: int, num: int, truth_values=None):
    """A ``synth`` network with walk-shaped sequences (node, attribute, node,
    attribute), a freshly initialised checkpoint and uniform truth scores,
    or scores drawn from ``truth_values`` to make ties."""
    net_dir = work / "net"
    assert run("synth", "--rows", grid, "--cols", grid, "--seed", seed, "--out", net_dir) == EXIT_OK
    n, m = grid * grid, load_network_dir(net_dir).m
    rng = np.random.default_rng(seed)
    seqs = np.empty((n, num, 4), dtype=np.int64)
    seqs[:, :, 0] = np.arange(n)[:, None]
    seqs[:, :, 1::2] = n + rng.integers(0, m, size=(n, num, 2))
    seqs[:, :, 2] = rng.integers(0, n, size=(n, num))
    samples = work / "samples.txt"
    save_samples(SampleSet(sequences=seqs, n=n, m=m,
                           config=WalkConfig(alpha=0.0001, num=num, length=4, seed=seed)), samples)
    cfg = TrainConfig(seed=seed)
    embed = EmbedParams.init(m, cfg.x, cfg.dim, seed)
    ranker = RankerParams.init(embed.hdim, cfg.f1, cfg.f2, cfg.rdim, seed + 1)
    ckpt = work / "model.ckpt"
    save_checkpoint(ckpt, embed, ranker, {"variant": "full", "m": m, "x": cfg.x, "dim": cfg.dim,
                                          "hdim": cfg.hdim, "f1": cfg.f1, "f2": cfg.f2,
                                          "rdim": cfg.rdim, "seed": seed,
                                          "input_dim": ranker.input_dim, "best_epoch": 0})
    aff = (rng.uniform(0.0, 3.0, size=n) if truth_values is None
           else rng.choice(truth_values, size=n))
    truth = work / "truth.csv"
    save_scores(ImportanceScores(aff=aff, gamma=None, periods=None, provenance="imported"), truth)
    return net_dir, samples, ckpt, truth


@pytest.fixture(scope="module")
def pipeline6(tmp_path_factory):
    """The 6x6 pipeline: synth, generate, sample, train."""
    work = tmp_path_factory.mktemp("pipeline6")
    net_dir = work / "net"
    truth, samples, ckpt = work / "scores.csv", work / "samples.txt", work / "model.ckpt"
    assert run("synth", "--rows", 6, "--cols", 6, "--seed", 1, "--out", net_dir) == EXIT_OK
    assert run("generate", "--network", net_dir, "--out", truth) == EXIT_OK
    assert run("sample", "--network", net_dir, "--seed", 1, "--num", 20, "--out", samples) == EXIT_OK
    assert run("train", "--network", net_dir, "--scores", truth, "--samples", samples,
               "--epochs", 3, "--out", ckpt) == EXIT_OK
    return net_dir, samples, ckpt, truth


@pytest.fixture(scope="module")
def grid12(tmp_path_factory):
    """A walk-shaped 12x12 set with tied truth scores."""
    return walk_shaped_set(tmp_path_factory.mktemp("grid12"), 12, 4, 12,
                           truth_values=[0.0, 0.5, 1.0, 2.0])


@pytest.fixture
def small_blocks(monkeypatch):
    """Encoder chunks of 50 nodes and rating blocks of 32 rows, so a
    144-node set runs 3 chunks and 5 blocks, neither aligned to the other."""
    monkeypatch.setattr(model, "NODE_CHUNK", 50)
    monkeypatch.setattr(model, "RATING_ROWS", 32)


def check_rank_and_eval(work: Path, net_dir, samples, ckpt, truth, nodes, node_file=None,
                        pair_nodes=None):
    """Run ``rank --ratings-out`` and ``eval`` and compare every byte with
    the oracles."""
    ranking, ratings, report = work / "ranking.csv", work / "ratings.csv", work / "report.txt"
    argv = ["rank", "--network", net_dir, "--ckpt", ckpt, "--samples", samples,
            "--ratings-out", ratings, "--out", ranking]
    assert run(*argv, *(("--nodes", node_file) if node_file else ())) == EXIT_OK
    want_ranking, want_ratings = oracle_rank(net_dir, ckpt, samples, nodes)
    assert ranking.read_bytes() == want_ranking
    assert ratings.read_bytes() == want_ratings
    pairs = ()
    if pair_nodes is not None:
        (work / "pairs.txt").write_text("".join(f"{v}\n" for v in pair_nodes))
        pairs = ("--pairs", work / "pairs.txt")
    assert run("eval", "--ranking", ranking, "--truth", truth, *pairs, "--out", report) == EXIT_OK
    assert report.read_bytes() == oracle_report(ranking, truth, pair_nodes)
    return ranking, ratings


# ---------------------------------------------------------------------------
# byte identity
# ---------------------------------------------------------------------------

def test_pipeline6_bytes_match_the_oracles(pipeline6, tmp_path):
    net_dir, samples, ckpt, truth = pipeline6
    check_rank_and_eval(tmp_path, *pipeline6, list(range(36)))
    splits = ckpt.with_name(ckpt.name + ".splits.csv")
    test_nodes = [int(r.split(",")[0]) for r in splits.read_text().splitlines()[1:]
                  if r.split(",")[1] == "test"]
    check_rank_and_eval(tmp_path, *pipeline6, sorted(test_nodes), node_file=splits,
                        pair_nodes=test_nodes)


def test_grid12_in_chunks_and_blocks_matches_the_oracles(grid12, tmp_path, small_blocks):
    check_rank_and_eval(tmp_path, *grid12, list(range(144)))


def test_grid12_non_contiguous_node_subset(grid12, tmp_path, small_blocks):
    nodes = sorted({*range(0, 144, 3), *range(100, 111), 143})
    node_file = tmp_path / "nodes.txt"
    node_file.write_text("".join(f"{v}\n" for v in reversed(nodes)))
    check_rank_and_eval(tmp_path, *grid12, nodes, node_file=node_file)


def test_grid12_eval_pairs_subset_with_tied_truth(grid12, tmp_path, small_blocks):
    truth = import_scores(grid12[3]).aff
    assert np.unique(truth).size == 4  # 144 scores over 4 values: ties everywhere
    pair_nodes = [7, 130, 3, 64, 65, 12, 99, 100, 101, 0, 143, 50]
    check_rank_and_eval(tmp_path, *grid12, list(range(144)), pair_nodes=pair_nodes)


def test_zeroed_output_layer_rates_every_pair_one_half(grid12, tmp_path, small_blocks):
    net_dir, samples, ckpt, truth = grid12
    embed, ranker, meta = load_checkpoint(ckpt)
    ranker.w_out[:] = 0.0
    ranker.b_out[:] = 0.0
    flat = tmp_path / "flat.ckpt"
    save_checkpoint(flat, embed, ranker, meta)
    ranking, ratings = check_rank_and_eval(tmp_path, net_dir, samples, flat, truth,
                                           list(range(144)))
    rows = [line.split(",") for line in ranking.read_text().splitlines()[1:]]
    assert [int(r[1]) for r in rows] == list(range(144))  # every count ties: by node id
    assert {(r[2], r[3]) for r in rows} == {("0", repr(143 * 0.5))}
    assert {line.rsplit(",", 1)[1] for line in ratings.read_text().splitlines()[1:]} == {"0.5"}


def test_counted_report_matches_the_enumerated_one():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 60))
        scores = rng.integers(0, int(rng.integers(1, 6)), size=n + 3).astype(float)
        ranking = rng.permutation(n + 3)[:n]
        pair_nodes = rng.choice(ranking, size=int(rng.integers(2, n + 4)))
        for nodes in (None, pair_nodes):
            if nodes is not None and np.unique(nodes).size < 2:
                continue
            assert report_for_ranking(ranking, scores, nodes) == enumerated_report(
                ranking, scores, nodes)


def test_report_needs_two_distinct_pair_nodes():
    with pytest.raises(ValidationError, match="at least 2 distinct nodes"):
        report_for_ranking([2, 0, 1], np.ones(3), pair_nodes=[1, 1])
    with pytest.raises(ValidationError, match="at least 2 distinct nodes"):
        report_for_ranking([0], np.ones(3))


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def grid40(tmp_path_factory):
    return walk_shaped_set(tmp_path_factory.mktemp("grid40"), 40, 2, 150)


def traced_peak_mb(*argv) -> float:
    """Peak ``tracemalloc`` memory of one CLI run, above what it started with."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert run(*argv) == EXIT_OK
        return (tracemalloc.get_traced_memory()[1] - before) / 1e6
    finally:
        tracemalloc.stop()


def test_rank_and_eval_memory_on_grid40(grid40, tmp_path):
    """1,600 nodes with 150 sequences each.  Here ``rank`` peaks near 20 MB
    and ``eval`` under 1 MB.  Before the encoder ran in node chunks and the
    ratings in row blocks, ``rank`` peaked at 293 MB; before the confusion
    counts were counted, ``eval`` listed all 2,558,400 ordered pairs and
    peaked at 133 MB."""
    net_dir, samples, ckpt, truth = grid40
    ranking = tmp_path / "ranking.csv"
    rank_mb = traced_peak_mb("rank", "--network", net_dir, "--ckpt", ckpt, "--samples", samples,
                             "--out", ranking)
    eval_mb = traced_peak_mb("eval", "--ranking", ranking, "--truth", truth,
                             "--out", tmp_path / "report.txt")
    assert rank_mb < 40, rank_mb
    assert eval_mb < 4, eval_mb
