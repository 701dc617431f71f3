import dataclasses
import hashlib
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roadrank
from roadrank.cascade import CascadeConfig
from roadrank.checkpoint import save_checkpoint
from roadrank.cli import (COMMANDS, EXIT_ERROR, EXIT_INVALID, EXIT_MISSING_INPUT, EXIT_OK,
                          EXIT_USAGE, export_plotdata, main)
from roadrank.encoder import EmbedParams, PrefixIndex
from roadrank.graph import ValidationError, load_network_dir
from roadrank.model import apply_ablation, embedding_width
from roadrank.ranker import RankerParams
from roadrank.training import TrainConfig
from roadrank.walks import load_samples


def run(*argv):
    return main(list(argv))


def build_pipeline(tmp_path, rows=4, cols=3, epochs=2, num=5):
    net_dir = tmp_path / "net"
    scores = tmp_path / "scores.csv"
    samples = tmp_path / "samples.txt"
    ckpt = tmp_path / "model.ckpt"
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"epochs={epochs}\nstrata=2\nseed=3\n")
    assert run("synth", "--rows", str(rows), "--cols", str(cols),
               "--seed", "1", "--out", str(net_dir)) == EXIT_OK
    assert run("generate", "--network", str(net_dir), "--out", str(scores)) == EXIT_OK
    assert run("sample", "--network", str(net_dir), "--num", str(num),
               "--seed", "2", "--out", str(samples)) == EXIT_OK
    assert run("train", "--network", str(net_dir), "--scores", str(scores),
               "--samples", str(samples), "--config", str(cfg),
               "--out", str(ckpt)) == EXIT_OK
    return net_dir, scores, samples, ckpt


def test_synth_is_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert run("synth", "--rows", "4", "--cols", "4", "--seed", "9",
                   "--out", str(out)) == EXIT_OK
    assert (a / "edges.csv").read_bytes() == (b / "edges.csv").read_bytes()
    assert (a / "attributes.csv").read_bytes() == (b / "attributes.csv").read_bytes()
    manifest = json.loads((a / "manifest.json").read_text())
    assert manifest["subcommand"] == "synth"
    assert manifest["seed"] == 9


def test_full_pipeline_smoke(tmp_path, capsys):
    net_dir, scores, samples, ckpt = build_pipeline(tmp_path)
    assert ckpt.is_file()
    history = (tmp_path / "model.ckpt.history.csv").read_text().splitlines()
    assert history[2] == "epoch,train_loss,val_micro_f1,val_macro_f1,val_diff"
    assert len(history) == 5  # 2 comment lines + header + 2 epochs
    splits_csv = (tmp_path / "model.ckpt.splits.csv").read_text().splitlines()
    assert splits_csv[0] == "node_id,split,stratum"
    assert len(splits_csv) == 13

    ranking = tmp_path / "ranking.csv"
    assert run("rank", "--network", str(net_dir), "--ckpt", str(ckpt),
               "--samples", str(samples), "--out", str(ranking)) == EXIT_OK
    lines = ranking.read_text().splitlines()
    assert lines[0] == "rank,node_id,copeland,rating_sum"
    assert len(lines) == 13

    report = tmp_path / "report.txt"
    assert run("eval", "--ranking", str(ranking), "--truth", str(scores),
               "--pairs", str(tmp_path / "model.ckpt.splits.csv"),
               "--out", str(report)) == EXIT_OK
    text = report.read_text()
    assert "micro_f1" in text and "diff" in text
    assert (tmp_path / "report.txt.manifest.json").is_file()


def test_rank_restricted_to_split(tmp_path):
    net_dir, scores, samples, ckpt = build_pipeline(tmp_path)
    ranking = tmp_path / "rank_test.csv"
    ratings = tmp_path / "ratings.csv"
    assert run("rank", "--network", str(net_dir), "--ckpt", str(ckpt),
               "--samples", str(samples),
               "--nodes", str(tmp_path / "model.ckpt.splits.csv"),
               "--split", "val", "--ratings-out", str(ratings),
               "--out", str(ranking)) == EXIT_OK
    body = ranking.read_text().splitlines()[1:]
    splits = (tmp_path / "model.ckpt.splits.csv").read_text().splitlines()[1:]
    val_nodes = {row.split(",")[0] for row in splits if row.split(",")[1] == "val"}
    assert {line.split(",")[1] for line in body} == val_nodes
    dump = ratings.read_text().splitlines()
    assert dump[0] == "i,j,rating"
    k = len(val_nodes)
    assert len(dump) == 1 + k * (k - 1)
    for line in dump[1:]:
        assert 0.0 < float(line.split(",")[2]) < 1.0


def test_sample_defaults_mirror_reference_settings(tmp_path):
    net_dir = tmp_path / "net"
    run("synth", "--rows", "2", "--cols", "2", "--seed", "0", "--out", str(net_dir))
    samples = tmp_path / "s.txt"
    assert run("sample", "--network", str(net_dir), "--out", str(samples)) == EXIT_OK
    manifest = json.loads((tmp_path / "s.txt.manifest.json").read_text())
    assert manifest["config"]["alpha"] == 0.0001
    assert manifest["config"]["num"] == 150
    assert manifest["config"]["len"] == 4
    header = samples.read_text().splitlines()[:7]
    assert "alpha 0.0001" in header


def test_eval_perfect_ranking_diff_zero(tmp_path):
    net_dir = tmp_path / "net"
    scores = tmp_path / "scores.csv"
    run("synth", "--rows", "3", "--cols", "3", "--seed", "5", "--out", str(net_dir))
    run("generate", "--network", str(net_dir), "--out", str(scores))
    aff = {}
    for line in scores.read_text().splitlines()[1:]:
        node, value = line.split(",")
        aff[int(node)] = float(value)
    order = sorted(aff, key=lambda v: (-aff[v], v))
    ranking = tmp_path / "truth_ranking.csv"
    ranking.write_text("node_id\n" + "".join(f"{v}\n" for v in order))
    report = tmp_path / "report.txt"
    assert run("eval", "--ranking", str(ranking), "--truth", str(scores),
               "--out", str(report)) == EXIT_OK
    assert "diff 0.0" in report.read_text()
    assert "micro_f1 1.0" in report.read_text()


def test_eval_pairs_accepts_headerless_list(tmp_path):
    net_dir = tmp_path / "net"
    scores = tmp_path / "scores.csv"
    run("synth", "--rows", "3", "--cols", "3", "--seed", "5", "--out", str(net_dir))
    run("generate", "--network", str(net_dir), "--out", str(scores))
    ranking = tmp_path / "ranking.csv"
    ranking.write_text("node_id\n" + "".join(f"{v}\n" for v in range(9)))
    pairs = tmp_path / "subset.txt"
    pairs.write_text("2\n4\n7\n")
    report = tmp_path / "report.txt"
    assert run("eval", "--ranking", str(ranking), "--truth", str(scores),
               "--pairs", str(pairs), "--out", str(report)) == EXIT_OK
    assert "pairs 6" in report.read_text()


def test_eval_topk_export(tmp_path, capsys):
    net_dir = tmp_path / "net"
    scores = tmp_path / "scores.csv"
    run("synth", "--rows", "3", "--cols", "3", "--seed", "5", "--out", str(net_dir))
    run("generate", "--network", str(net_dir), "--out", str(scores))
    ranking = tmp_path / "ranking.csv"
    ranking.write_text("node_id\n" + "".join(f"{v}\n" for v in range(9)))
    report = tmp_path / "report.txt"
    topk = tmp_path / "topk.csv"
    assert run("eval", "--ranking", str(ranking), "--truth", str(scores),
               "--topk", "4", "--topk-out", str(topk),
               "--out", str(report)) == EXIT_OK
    lines = topk.read_text().splitlines()
    assert lines[0].startswith("# top-4 overlap:")
    assert lines[1] == "position,predicted_node,predicted_hit,actual_node,actual_hit"
    assert len(lines) == 6
    topk.unlink()
    for flags, message in ((("--topk", "4"), "--topk needs --topk-out"),
                           (("--topk-out", str(topk)), "--topk-out needs --topk")):
        capsys.readouterr()
        assert run("eval", "--ranking", str(ranking), "--truth", str(scores), *flags,
                   "--out", str(report)) == EXIT_INVALID
        assert message in capsys.readouterr().err
        assert not topk.exists()


def test_export_plotdata_perfect_and_bounds(tmp_path):
    scores = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
    path = tmp_path / "plot.csv"
    overlap = export_plotdata([0, 1, 2, 3, 4], scores, 3, path)
    assert overlap == 3
    with pytest.raises(ValidationError):
        export_plotdata([0, 1, 2], scores, 0, path)
    with pytest.raises(ValidationError):
        export_plotdata([0, 1, 2], scores, 4, path)


def test_baseline_methods(tmp_path):
    net_dir = tmp_path / "net"
    run("synth", "--rows", "3", "--cols", "3", "--seed", "5", "--out", str(net_dir))
    for method in ("dc", "bc", "pagerank"):
        out = tmp_path / f"{method}.csv"
        assert run("baseline", "--method", method, "--network", str(net_dir),
                   "--out", str(out)) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "rank,node_id,score"
        assert len(lines) == 10


def test_gradcheck_subcommand(tmp_path, capsys):
    out = tmp_path / "gradcheck.txt"
    assert run("gradcheck", "--seed", "1", "--out", str(out)) == EXIT_OK
    text = out.read_text()
    assert "worst" in text
    worst = float(text.splitlines()[-1].split()[-1])
    assert worst < 1e-4


def test_gradcheck_fails_on_a_nan_gradient(tmp_path, capsys, monkeypatch):
    """A NaN planted in one analytic gradient element is the worst error,
    and the check fails: ``err > worst`` is False for a NaN, which once let
    a report read 2.2e-11 over it."""
    from roadrank.model import PairScorer

    real = PairScorer.loss_and_grads

    def planted(self, *args, **kwargs):
        loss, grads, ratings = real(self, *args, **kwargs)
        grads["embed.w_in"][0, 0] = np.nan
        return loss, grads, ratings

    monkeypatch.setattr(PairScorer, "loss_and_grads", planted)
    out = tmp_path / "gradcheck.txt"
    assert run("gradcheck", "--seed", "0", "--out", str(out)) == EXIT_ERROR
    lines = out.read_text().splitlines()
    assert "embed.w_in nan" in lines
    assert lines[-1] == "worst nan"
    assert "gradient check FAILED" in capsys.readouterr().err


def test_exit_codes(tmp_path):
    assert run("sample", "--no-such-flag") == EXIT_USAGE
    assert run("sample", "--network", str(tmp_path / "missing"),
               "--out", str(tmp_path / "s.txt")) == EXIT_MISSING_INPUT
    net_dir = tmp_path / "net"
    run("synth", "--rows", "2", "--cols", "2", "--seed", "0", "--out", str(net_dir))
    assert run("sample", "--network", str(net_dir), "--alpha", "7",
               "--out", str(tmp_path / "s.txt")) == EXIT_INVALID
    assert run("synth", "--rows", "1", "--cols", "1", "--seed", "0",
               "--out", str(tmp_path / "tiny")) == EXIT_INVALID


def test_config_file_and_flag_precedence(tmp_path):
    net_dir = tmp_path / "net"
    run("synth", "--rows", "2", "--cols", "2", "--seed", "0", "--out", str(net_dir))
    cfg = tmp_path / "sample.cfg"
    cfg.write_text("num=7\nalpha=0.5\n")
    out = tmp_path / "s.txt"
    assert run("sample", "--network", str(net_dir), "--config", str(cfg),
               "--num", "9", "--out", str(out)) == EXIT_OK
    manifest = json.loads((tmp_path / "s.txt.manifest.json").read_text())
    assert manifest["config"]["num"] == 9       # flag beats file
    assert manifest["config"]["alpha"] == 0.5   # file beats default


def test_stage_outputs_reproducible(tmp_path):
    outs = []
    for name in ("one", "two"):
        base = tmp_path / name
        base.mkdir()
        net_dir, scores, samples, ckpt = build_pipeline(base)
        ranking = base / "ranking.csv"
        run("rank", "--network", str(net_dir), "--ckpt", str(ckpt),
            "--samples", str(samples), "--out", str(ranking))
        outs.append((scores.read_bytes(), samples.read_bytes(),
                     ckpt.read_bytes(), ranking.read_bytes()))
    assert outs[0] == outs[1]


# sha256 of the oracle stages' outputs on a 6x6 grid; a change that moves
# any of these bytes must say so and update the digest on purpose
GOLDEN_SHA256 = {
    "scores.csv": "5a6a61d9afae6856a4c9bfa2968a1c9524753e9804e74eb8bad2802e1fc7188b",
    "samples.txt": "dd74ebb61b3cffddf0d780a504ae725c3c0ac9e664e7bea101aa653f2cb56da2",
    "bc.csv": "5d1afd68faf6ecc3366fdc8e670f7d4bcc7f250018c7d311115f70ecb705972e",
}


def test_oracle_stage_outputs_match_golden_digests(tmp_path):
    net_dir = tmp_path / "net"
    assert run("synth", "--rows", "6", "--cols", "6", "--seed", "1",
               "--out", str(net_dir)) == EXIT_OK
    assert run("generate", "--network", str(net_dir),
               "--out", str(tmp_path / "scores.csv")) == EXIT_OK
    assert run("sample", "--network", str(net_dir), "--seed", "1",
               "--out", str(tmp_path / "samples.txt")) == EXIT_OK
    assert run("baseline", "--method", "bc", "--network", str(net_dir),
               "--out", str(tmp_path / "bc.csv")) == EXIT_OK
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN_SHA256}
    assert digests == GOLDEN_SHA256


# sha256 of `generate`'s scores.csv on a 30x30 grid (seed 1), where each
# target's change set covers only part of the network
GRID30_SCORES_SHA256 = "95065afaddaa29618ae56cdaccab764f45a37889dc5598924238e900edbb8659"
# the other stages that read the network's adjacency, on the same grid:
# Brandes runs 7 blocks of sources there, against 1 on the 6x6 grid
GRID30_SHA256 = {
    "samples.txt": "82e5e07235711a8988884cf2c7ac8ab5dce88d1fd3ddd6aba49541d0bb87f421",
    "bc.csv": "dd8d4cf916cb6907c8843749a84689b7311fb658759d836cd06d6bd79a2736a4",
    "dc.csv": "da085d22eeef3545e2b826cc33eee660616cad9d5e5b8d6b146878a96a6c4710",
    # the sampler's heads branch, which alpha 1e-4 barely takes (about 0.05
    # heads per node): mixed steps at alpha 0.5, and heads only at alpha 1
    "samples_a05_len6.txt": "bfafd6cd5c50186313d7d60edded848919ac4def44dd9baafe2f3b39987006e0",
    "samples_a1.txt": "75687f8e5e8fd2093252cb8eae9a45af4c56272eb881afd5636d1e20eb685ccb",
}


def test_generate_on_a_30x30_grid_matches_golden_digest(tmp_path):
    net_dir = tmp_path / "net"
    assert run("synth", "--rows", "30", "--cols", "30", "--seed", "1",
               "--out", str(net_dir)) == EXIT_OK
    assert run("generate", "--network", str(net_dir),
               "--out", str(tmp_path / "scores.csv")) == EXIT_OK
    digest = hashlib.sha256((tmp_path / "scores.csv").read_bytes()).hexdigest()
    assert digest == GRID30_SCORES_SHA256
    assert run("sample", "--network", str(net_dir), "--seed", "1",
               "--out", str(tmp_path / "samples.txt")) == EXIT_OK
    assert run("sample", "--network", str(net_dir), "--alpha", "0.5", "--len", "6", "--seed", "1",
               "--out", str(tmp_path / "samples_a05_len6.txt")) == EXIT_OK
    assert run("sample", "--network", str(net_dir), "--alpha", "1", "--seed", "1",
               "--out", str(tmp_path / "samples_a1.txt")) == EXIT_OK
    for method in ("bc", "dc"):
        assert run("baseline", "--method", method, "--network", str(net_dir),
                   "--out", str(tmp_path / f"{method}.csv")) == EXIT_OK
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GRID30_SHA256}
    assert digests == GRID30_SHA256


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    base = tmp_path_factory.mktemp("pipeline")
    net_dir, scores, samples, ckpt = build_pipeline(base)
    ranking = base / "ranking.csv"
    assert run("rank", "--network", str(net_dir), "--ckpt", str(ckpt),
               "--samples", str(samples), "--out", str(ranking)) == EXIT_OK
    return base, net_dir, scores, samples, ckpt, ranking


def invalid(capsys, *argv) -> str:
    """Run a command that must fail validation; return its one-line error."""
    capsys.readouterr()
    assert run(*argv) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("command", ["synth", "sample", "train", "gradcheck"])
def test_negative_seed_rejected(pipeline, tmp_path, capsys, command):
    base, net_dir, scores, samples, _, _ = pipeline
    args = {"synth": ("--rows", "2", "--cols", "2"),
            "sample": ("--network", str(net_dir)),
            "train": ("--network", str(net_dir), "--scores", str(scores), "--samples", str(samples)),
            "gradcheck": ()}[command]
    err = invalid(capsys, command, *args, "--seed", "-1", "--out", str(tmp_path / "out"))
    assert "seed must be >= 0" in err


def test_threads_flag_removed(tmp_path):
    assert run("sample", "--network", str(tmp_path), "--threads", "1",
               "--out", str(tmp_path / "s.txt")) == EXIT_USAGE


# the pipeline has 12 nodes, so id 12 is one past the last: a non-finite
# score must be named at its line before the id is found to be extra
@pytest.mark.parametrize("body", ["0,abc\n", "x,1.0\n", "0\n", "12,nan\n", "12,inf\n",
                                  "12,-inf\n", "12,2.0,junk\n"])
def test_eval_rejects_malformed_truth(pipeline, tmp_path, capsys, body):
    base, _, scores, _, _, ranking = pipeline
    truth = tmp_path / "truth.csv"
    truth.write_text(scores.read_text() + body)
    lines = len(scores.read_text().splitlines())
    err = invalid(capsys, "eval", "--ranking", str(ranking), "--truth", str(truth),
                  "--out", str(tmp_path / "report.txt"))
    assert f"{truth}:{lines + 1}:" in err


@pytest.mark.parametrize("text, message", [
    pytest.param("node_id,aff,note\n" + "".join(f"{v},1.0,0.0\n" for v in range(12)),
                 "expected header 'node_id,aff'", id="extra-column"),
    pytest.param("node_id,aff\n", "no node rows after the header", id="header-only"),
])
def test_eval_rejects_truth_without_one_score_per_row(pipeline, tmp_path, capsys, text, message):
    base, _, _, _, _, ranking = pipeline
    truth = tmp_path / "truth.csv"
    truth.write_text(text)
    err = invalid(capsys, "eval", "--ranking", str(ranking), "--truth", str(truth),
                  "--out", str(tmp_path / "report.txt"))
    assert f"{truth}: {message}" in err


def test_baseline_rejects_a_network_without_nodes(tmp_path, capsys):
    net_dir = tmp_path / "net"
    net_dir.mkdir()
    (net_dir / "edges.csv").write_text("src,dst\n")
    (net_dir / "attributes.csv").write_text("node_id,limiv,nlan\n")
    err = invalid(capsys, "baseline", "--method", "bc", "--network", str(net_dir),
                  "--out", str(tmp_path / "bc.csv"))
    assert "attributes.csv: no node rows after the header" in err


def test_node_readers_reject_bad_ids_and_short_rows(pipeline, tmp_path, capsys):
    base, net_dir, scores, samples, ckpt, ranking = pipeline
    nodes = tmp_path / "nodes.txt"
    nodes.write_text("3\nfoo\n")
    err = invalid(capsys, "rank", "--network", str(net_dir), "--ckpt", str(ckpt),
                  "--samples", str(samples), "--nodes", str(nodes),
                  "--out", str(tmp_path / "r.csv"))
    assert f"{nodes}:2:" in err and "'foo'" in err
    nodes.write_text("3\n99\n")
    err = invalid(capsys, "rank", "--network", str(net_dir), "--ckpt", str(ckpt),
                  "--samples", str(samples), "--nodes", str(nodes),
                  "--out", str(tmp_path / "r.csv"))
    assert "0..11" in err
    bad_ranking = tmp_path / "ranking.csv"
    bad_ranking.write_text("node_id\n1\n2.5\n")
    err = invalid(capsys, "eval", "--ranking", str(bad_ranking), "--truth", str(scores),
                  "--out", str(tmp_path / "report.txt"))
    assert f"{bad_ranking}:3:" in err
    bad_ranking.write_text("node_id\n4\n1\n4\n")
    err = invalid(capsys, "eval", "--ranking", str(bad_ranking), "--truth", str(scores),
                  "--out", str(tmp_path / "report.txt"))
    assert f"{bad_ranking}: duplicate node id(s) [4]" in err
    pairs = tmp_path / "splits.csv"
    pairs.write_text("node_id,split,stratum\n0,test,0\n1,test\n")
    err = invalid(capsys, "eval", "--ranking", str(ranking), "--truth", str(scores),
                  "--pairs", str(pairs), "--out", str(tmp_path / "report.txt"))
    assert f"{pairs}:3: expected 3 fields" in err


@pytest.mark.parametrize("body, message", [
    pytest.param("3\n3\n5\n", "duplicate node id(s) [3]", id="one-repeat"),
    pytest.param("node_id\n7\n2\n7\n2\n", "duplicate node id(s) [2, 7]", id="two-repeats"),
    pytest.param("node_id\n", "no node ids", id="header-only"),
])
def test_rank_nodes_rejects_duplicates_and_empty_list(pipeline, tmp_path, capsys, body, message):
    base, net_dir, scores, samples, ckpt, ranking = pipeline
    nodes = tmp_path / "nodes.csv"
    nodes.write_text(body)
    out = tmp_path / "r.csv"
    err = invalid(capsys, "rank", "--network", str(net_dir), "--ckpt", str(ckpt),
                  "--samples", str(samples), "--nodes", str(nodes), "--out", str(out))
    assert f"{nodes}: {message}" in err
    assert not out.exists()


@pytest.mark.parametrize("body, message", [
    pytest.param("3\n3\n5\n", "duplicate node id(s) [3]", id="one-repeat"),
    pytest.param("node_id\n4\n", "pairwise F1 needs at least 2 node ids, got 1", id="one-node"),
    pytest.param("node_id,split\n4,test\n5,val\n",
                 "pairwise F1 needs at least 2 node ids, got 1", id="one-node-in-split"),
    pytest.param("node_id\n", "pairwise F1 needs at least 2 node ids, got 0", id="header-only"),
])
def test_eval_pairs_rejects_duplicates_and_single_node(pipeline, tmp_path, capsys, body, message):
    base, _, scores, _, _, ranking = pipeline
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(body)
    out = tmp_path / "report.txt"
    err = invalid(capsys, "eval", "--ranking", str(ranking), "--truth", str(scores),
                  "--pairs", str(pairs), "--out", str(out))
    assert f"{pairs}: {message}" in err
    assert not out.exists()


@pytest.mark.parametrize("line, replacement", [
    ("n 12", "n x"), ("alpha 0.0001", ""), ("seed 2", "seed"), ("m 5", "num 5"),
    ("n 12", "n -1"), (9, "12 x 3 4"), (9, "12 3"), (67, None),
    ("num 5", "num 0"), ("alpha 0.0001", "alpha nan"), ("l 4", "l 1"), ("m 5", "m -2"),
    (9, ""), (9, "# 12 3 4"), (9, "12 13 3 4 5"), (9, "99999999999999999999 13 3 4"),
])
def test_samples_header_rejected(pipeline, tmp_path, capsys, line, replacement):
    """Header lines are given by their text, sequence lines by number."""
    base, net_dir, scores, samples, ckpt, _ = pipeline
    lines = samples.read_text().splitlines(keepends=True)
    assert len(lines) == 67
    ln = line if isinstance(line, int) else lines.index(f"{line}\n") + 1
    if replacement is None:
        del lines[ln - 1:]  # the file ends where line ln should be
    else:
        lines[ln - 1] = f"{replacement}\n"
    bad = tmp_path / "samples.txt"
    bad.write_text("".join(lines))
    err = invalid(capsys, "rank", "--network", str(net_dir), "--ckpt", str(ckpt),
                  "--samples", str(bad), "--out", str(tmp_path / "r.csv"))
    assert f"{bad}:{ln}: " in err
    if not isinstance(line, int):
        assert "header" in err


@pytest.mark.parametrize("command", ["rank", "train"])
def test_samples_drawn_for_another_attribute_count_rejected(pipeline, tmp_path, capsys, command):
    """A header of m 7 over a network with m = 5 lets a sequence hold vertex
    id n + 6, which no row of the network's vertex table has."""
    base, net_dir, scores, samples, ckpt, _ = pipeline
    lines = samples.read_text().splitlines(keepends=True)
    lines[lines.index("m 5\n")] = "m 7\n"
    lines[8] = "12 18 3 4\n"  # the first sequence line; 18 = n + 6
    bad = tmp_path / "samples.txt"
    bad.write_text("".join(lines))
    args = {"rank": ("--ckpt", str(ckpt)),
            "train": ("--scores", str(scores), "--epochs", "1", "--strata", "2")}[command]
    err = invalid(capsys, command, "--network", str(net_dir), *args, "--samples", str(bad),
                  "--out", str(tmp_path / "out"))
    assert "m=7" in err and "m=5" in err


@pytest.mark.parametrize("key, value", [
    ("input_dim", None), ("input_dim", "8.5"), ("m", None), ("x", "eight"), ("dim", None),
    ("ranker.b_out", "0.5x"), ("embed.fw.w_hc", "0.1 0.2 three 0.4"),
    ("ranker.b_out", "nan"), ("ranker.b_out", "-inf"),
    ("ranker.b_out", ("2", "0.1 0.2")), ("ranker.b_out", ("1 1", "0.1")),
    ("x", "-1"), ("input_dim", "-3"), ("f2", "0"), ("variant", "bogus"),
])
def test_checkpoint_meta_rejected(pipeline, tmp_path, capsys, key, value):
    """Meta keys are dropped or replaced; a tensor's value line, or its
    shape and value lines given as a pair, are replaced."""
    base, net_dir, scores, samples, ckpt, _ = pipeline
    lines = ckpt.read_text().splitlines(keepends=True)
    bad = tmp_path / "model.ckpt"
    if key.startswith(("embed.", "ranker.")):
        head = next(k for k, text in enumerate(lines, start=1)
                    if text.startswith(f"tensor {key} "))
        shape, values = value if isinstance(value, tuple) else (None, value)
        if shape is not None:
            lines[head - 1] = f"tensor {key} {shape}\n"
        lines[head] = f"{values}\n"
        # a shape the metadata does not imply is named at its shape line
        ln = head if shape is not None else head + 1
        expected = f"{bad}:{ln}: tensor {key}"
    else:
        kept = [ln for ln in lines if not ln.startswith(f"meta {key} ")]
        assert len(kept) == len(lines) - 1
        if value is not None:
            kept.insert(1, f"meta {key} {value}\n")
        lines, expected = kept, f"{bad}: meta {key}"
    bad.write_text("".join(lines))
    err = invalid(capsys, "rank", "--network", str(net_dir), "--ckpt", str(bad),
                  "--samples", str(samples), "--out", str(tmp_path / "r.csv"))
    assert expected in err


@pytest.mark.parametrize("extra, at, repeated", [
    pytest.param(["tensor ranker.b_out 1\n", "0.0\n"], None, "tensor ranker.b_out", id="tensor"),
    pytest.param(["meta variant NoEmb\n"], 1, "meta variant", id="meta-ahead-of-the-real-one"),
])
def test_checkpoint_refuses_a_repeated_name(pipeline, tmp_path, capsys, extra, at, repeated):
    """A repeated meta key or tensor name is refused at its second line
    rather than letting the later value win."""
    base, net_dir, scores, samples, ckpt, _ = pipeline
    lines = ckpt.read_text().splitlines(keepends=True)
    at = len(lines) if at is None else at
    lines[at:at] = extra
    second = max(k for k, text in enumerate(lines, start=1) if text.startswith(repeated + " "))
    bad = tmp_path / "model.ckpt"
    bad.write_text("".join(lines))
    err = invalid(capsys, "rank", "--network", str(net_dir), "--ckpt", str(bad),
                  "--samples", str(samples), "--out", str(tmp_path / "r.csv"))
    assert f"{bad}:{second}: repeated {repeated}" in err


@pytest.mark.parametrize("variant, change", [
    pytest.param("full", "ranker.foo", id="full"),
    pytest.param("NoEmb", "ranker.foo", id="NoEmb"),
    pytest.param("NoEmb", "add-encoder", id="NoEmb-given-encoder-tensors"),
    pytest.param("full", "drop-encoder", id="full-without-encoder-tensors"),
])
def test_checkpoint_refuses_an_unknown_tensor(pipeline, tmp_path, capsys, variant, change):
    """A tensor name the variant does not define is refused at its line,
    whether or not the checkpoint has encoder tensors.  ``meta variant``,
    not the names present, decides which encoder tensors are defined: a
    NoEmb checkpoint given a full one's is refused at the first of them, and
    a full one without them misses ``embed.w_in``."""
    base, net_dir, scores, samples, ckpt, _ = pipeline
    good = tmp_path / "good.ckpt"
    if variant == "full":
        shutil.copy(ckpt, good)
    else:
        m = load_network_dir(net_dir).m
        cfg = TrainConfig()  # the dims ``train`` records for every variant
        save_checkpoint(good, None, RankerParams.init(m, seed=3),
                        {"variant": "NoEmb", "m": m, "x": cfg.x, "dim": cfg.dim, "input_dim": m})
    rank = ("rank", "--network", str(net_dir), "--samples", str(samples),
            "--out", str(tmp_path / "r.csv"), "--ckpt")
    assert run(*rank, str(good)) == EXIT_OK
    bad = tmp_path / "model.ckpt"
    lines = good.read_text().splitlines(keepends=True)
    full = ckpt.read_text().splitlines(keepends=True)
    # each encoder tensor of the full checkpoint: its name line and its values line
    encoder = {j for k, text in enumerate(full) if text.startswith("tensor embed.") for j in (k, k + 1)}
    assert len(encoder) == 2 * 26
    if change == "drop-encoder":
        bad.write_text("".join(text for k, text in enumerate(lines) if k not in encoder))
        assert f"{bad}: missing tensor embed.w_in" in invalid(capsys, *rank, str(bad))
        return
    extra = (["tensor ranker.foo 1\n", "0.5\n"] if change == "ranker.foo"
             else [full[k] for k in sorted(encoder)])
    bad.write_text("".join(lines + extra))
    err = invalid(capsys, *rank, str(bad))
    assert f"{bad}:{len(lines) + 1}: unknown tensor {extra[0].split()[1]}" in err


@pytest.mark.parametrize("flag, value", [("--lr", "nan"), ("--beta1", "1.0"), ("--eps", "inf")])
def test_train_rejects_bad_optimizer_values(pipeline, tmp_path, capsys, flag, value):
    base, net_dir, scores, samples, _, _ = pipeline
    err = invalid(capsys, "train", "--network", str(net_dir), "--scores", str(scores),
                  "--samples", str(samples), "--epochs", "1", flag, value,
                  "--out", str(tmp_path / "model.ckpt"))
    assert flag[2:] in err


@pytest.mark.parametrize("flag, value", [("--kappa", "nan"), ("--observation-window", "inf")])
def test_generate_rejects_non_finite_cascade_values(pipeline, tmp_path, capsys, flag, value):
    base, net_dir, _, _, _, _ = pipeline
    out = tmp_path / "scores.csv"
    err = invalid(capsys, "generate", "--network", str(net_dir), flag, value, "--out", str(out))
    assert flag[2:].replace("-", "_") in err and not out.exists()


def test_config_value_failing_its_cast_names_the_line(pipeline, tmp_path, capsys):
    base, net_dir, _, _, _, _ = pipeline
    cfg = tmp_path / "sample.cfg"
    cfg.write_text("# walks\nalpha=0.5\nnum=abc\n")
    err = invalid(capsys, "sample", "--network", str(net_dir), "--config", str(cfg),
                  "--out", str(tmp_path / "s.txt"))
    assert f"{cfg}:3: num" in err and "'abc'" in err


@pytest.mark.parametrize("command, body, ln, message", [
    pytest.param("train", "strata=2\nepoch=1\n", 2, "unknown key 'epoch'", id="unknown"),
    pytest.param("sample", "num=3\n# again\nnum=4\n", 3, "num repeats line 1", id="repeated"),
    pytest.param("synth", "rows=2\ncols=2\nout=\n", 3, "out has no value", id="empty"),
    pytest.param("baseline", "# which centrality\nmethod=xyz\n", 2,
                 "method must be one of dc, bc, pagerank, got 'xyz'", id="not-a-choice"),
])
def test_config_file_rejects_unknown_repeated_and_empty_keys(
        pipeline, tmp_path, monkeypatch, capsys, command, body, ln, message):
    base, net_dir, scores, samples, _, _ = pipeline
    args = {"synth": (),
            "baseline": ("--network", str(net_dir), "--out", "b.csv"),
            "sample": ("--network", str(net_dir), "--out", "s.txt"),
            "train": ("--network", str(net_dir), "--scores", str(scores),
                      "--samples", str(samples), "--out", "m.ckpt")}[command]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(body)
    monkeypatch.chdir(tmp_path)  # an empty out= must not write here
    err = invalid(capsys, command, *args, "--config", str(cfg))
    assert f"{cfg}:{ln}: {message}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


@pytest.mark.parametrize("argv", [
    ("synth", "--rows", "2", "--cols", "2", "--out", ""),
    ("synth", "--rows", "2", "--cols", "2", "--config", "", "--out", "net"),
    ("sample", "--network", "", "--out", "s.txt"),
])
def test_empty_path_flag_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    """``Path("")`` is the working directory: an empty path flag must not
    read or write there."""
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == EXIT_USAGE
    assert "invalid pathname value: ''" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("ignore:too few nodes per stratum")
def test_train_refuses_a_split_without_two_validation_nodes(pipeline, tmp_path, capsys):
    """The default 5 strata shrink to 4 of 3 nodes on the 12-node pipeline
    network, and 15% of 3 nodes rounds to none."""
    base, net_dir, scores, samples, _, _ = pipeline
    out = tmp_path / "model.ckpt"
    err = invalid(capsys, "train", "--network", str(net_dir), "--scores", str(scores),
                  "--samples", str(samples), "--out", str(out))
    assert "validation split holds 0 node(s)" in err
    assert list(tmp_path.iterdir()) == []


def test_test_split_is_what_train_and_validation_leave(pipeline, tmp_path, capsys):
    """No setting names the test share: ``--train-frac 0.6`` alone trains
    with test the remaining 0.25, and ``--test-frac`` and ``test_frac`` are
    refused as unknown."""
    base, net_dir, scores, samples, _, _ = pipeline
    train = ("train", "--network", str(net_dir), "--scores", str(scores),
             "--samples", str(samples), "--epochs", "1", "--strata", "2")
    out = tmp_path / "model.ckpt"
    assert run(*train, "--train-frac", "0.6", "--out", str(out)) == EXIT_OK
    history = (tmp_path / "model.ckpt.history.csv").read_text().splitlines()
    assert history[0] == "# strata=2 split=0.6/0.15/0.25 ablation=full seed=0"
    # two strata of 6 nodes: round(3.6) = 4 train, round(0.9) = 1 val, 1 test each
    rows = (tmp_path / "model.ckpt.splits.csv").read_text().splitlines()[1:]
    assert sorted(row.split(",")[1] for row in rows) == ["test"] * 2 + ["train"] * 8 + ["val"] * 2
    assert run(*train, "--test-frac", "0.15", "--out", str(tmp_path / "m2.ckpt")) == EXIT_USAGE
    cfg = tmp_path / "split.cfg"
    cfg.write_text("test_frac=0.15\n")
    err = invalid(capsys, *train, "--config", str(cfg), "--out", str(tmp_path / "m3.ckpt"))
    assert f"{cfg}:1: unknown key 'test_frac'" in err


def test_unopenable_files_through_the_module_entry_point(pipeline, tmp_path):
    """``python -m roadrank`` reports a file it cannot open, input or
    output, in one line with exit 3 and no traceback."""
    base, net_dir, scores, samples, _, _ = pipeline
    missing = tmp_path / "missing"
    cases = [
        (("sample", "--network", str(missing), "--out", str(tmp_path / "s.txt")),
         f"error: {missing / 'attributes.csv'}: No such file or directory"),
        (("rank", "--network", str(net_dir), "--ckpt", str(tmp_path), "--samples", str(samples),
          "--out", str(tmp_path / "r.csv")), f"error: {tmp_path}: Is a directory"),
        (("generate", "--network", str(net_dir), "--out", str(tmp_path)),
         f"error: {tmp_path}: Is a directory"),
        (("generate", "--network", str(net_dir), "--out", str(missing / "scores.csv")),
         f"error: {missing / 'scores.csv'}: No such file or directory"),
    ]
    src = str(Path(roadrank.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for argv, message in cases:
        proc = subprocess.run([sys.executable, "-m", "roadrank", *argv], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == EXIT_MISSING_INPUT, proc.stderr
        assert proc.stderr == message + "\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("command, flag", [("rank", "--ratings-out"), ("rank", "--out"),
                                           ("baseline", "--out")])
def test_a_failed_write_ends_in_one_line_through_the_module_entry_point(pipeline, tmp_path,
                                                                         command, flag):
    """A write that fails with no file name attached (a full disk, here
    /dev/full, which takes the open and refuses every write) names its
    output in one line with exit 3, with no traceback."""
    _, net_dir, _, samples, ckpt, _ = pipeline
    argv = {"rank": ["rank", "--network", str(net_dir), "--ckpt", str(ckpt),
                     "--samples", str(samples)],
            "baseline": ["baseline", "--method", "dc", "--network", str(net_dir)]}[command]
    outs = {"--out": str(tmp_path / "out.csv"), flag: "/dev/full"}
    src = str(Path(roadrank.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "roadrank", *argv,
                           *[a for item in outs.items() for a in item]],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == EXIT_MISSING_INPUT, proc.stderr
    assert proc.stderr == "error: /dev/full: No space left on device\n"
    assert list(tmp_path.iterdir()) == []


def _option_values(base, net_dir, scores, samples, ckpt, ranking):
    """A valid, non-default value for every option of every subcommand;
    outputs are relative to the working directory."""
    splits = str(base / "model.ckpt.splits.csv")
    net_dir, scores, samples, ckpt, ranking = map(str, (net_dir, scores, samples, ckpt, ranking))
    return {
        "synth": {"rows": "3", "cols": "2", "seed": "4", "out": "net"},
        "generate": {"network": net_dir, "capacity_reduction": "0.2",
                     "failure_speed_fraction": "0.2", "gamma": "0.8", "periods": "3",
                     "spillback_rate": "0.4", "kappa": "2.0", "observation_window": "2.0",
                     "out": "scores.csv"},
        "sample": {"network": net_dir, "alpha": "0.5", "num": "3", "len": "3", "seed": "2",
                   "out": "samples.txt"},
        "train": {"network": net_dir, "scores": scores, "samples": samples, "lr": "0.01",
                  "dropout": "0.1", "batch": "16", "epochs": "1", "train_frac": "0.5",
                  "val_frac": "0.25", "strata": "2", "beta1": "0.8",
                  "beta2": "0.99", "eps": "1e-07", "seed": "1", "ablation": "NoBiLSTM",
                  "x": "4", "hdim": "4", "f1": "8", "f2": "4", "rdim": "4", "out": "model.ckpt"},
        "rank": {"network": net_dir, "ckpt": ckpt, "samples": samples, "nodes": splits,
                 "split": "val", "ratings_out": "ratings.csv", "out": "ranking.csv"},
        "eval": {"ranking": ranking, "truth": scores, "pairs": splits, "split": "val",
                 "topk": "3", "topk_out": "topk.csv", "out": "report.txt"},
        "baseline": {"method": "pagerank", "network": net_dir, "out": "bc.csv"},
        "gradcheck": {"seed": "2", "out": "grad.txt"},
    }


def _manifest(out: Path) -> dict:
    path = out / "manifest.json" if out.is_dir() else out.with_name(out.name + ".manifest.json")
    return json.loads(path.read_text())


# the options whose files each subcommand's manifest digests, besides --config
READS = {"synth": (), "generate": ("network",), "sample": ("network",),
         "train": ("network", "scores", "samples"),
         "rank": ("network", "ckpt", "samples", "nodes"),
         "eval": ("ranking", "truth", "pairs"), "baseline": ("network",), "gradcheck": ()}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_option_reads_the_same_as_flag_and_config_key(
        pipeline, tmp_path, monkeypatch, command):
    values = _option_values(*pipeline)[command]
    reads = set()
    for key in READS[command]:
        reads |= ({f"{values[key]}/edges.csv", f"{values[key]}/attributes.csv"}
                  if key == "network" else {values[key]})
    configs = []
    for mode in ("flags", "config"):
        (tmp_path / mode).mkdir()
        monkeypatch.chdir(tmp_path / mode)
        if mode == "flags":
            argv = [a for key, value in values.items()
                    for a in (f"--{key.replace('_', '-')}", value)]
        else:
            Path("run.cfg").write_text("".join(f"{k}={v}\n" for k, v in values.items()))
            argv = ["--config", "run.cfg"]
            reads.add("run.cfg")
        assert run(command, *argv) == EXIT_OK
        manifest = _manifest(Path(values["out"]))
        configs.append(manifest["config"])
        assert set(manifest["inputs"]) == reads
    assert configs[0] == configs[1]
    assert {key: str(value) for key, value in configs[0].items()} == values


@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_manifest_records_the_numpy_and_blas_build(pipeline, tmp_path, monkeypatch,
                                                        command):
    """Trained and rated bytes hold for one numpy version and one BLAS kernel
    family, so each manifest names the build that wrote its output: a pinned
    digest that fails elsewhere can be read against it."""
    values = _option_values(*pipeline)[command]
    monkeypatch.chdir(tmp_path)
    assert run(command, *[a for key, value in values.items()
                          for a in (f"--{key.replace('_', '-')}", value)]) == EXIT_OK
    manifest = _manifest(Path(values["out"]))
    # numpy before 1.25 records no build configuration: the field is then null
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas")
    assert manifest["numpy"] == np.__version__
    assert manifest["blas"] == (None if blas is None
                                else {"name": blas["name"], "version": blas["version"]})


def test_every_manifest_records_the_openblas_core(tmp_path, monkeypatch):
    """The manifest names the OpenBLAS core that ran, asked of the library
    itself: a forced one in a child process, and null where the library
    lacks the symbol."""
    from types import SimpleNamespace

    from roadrank import cli

    core = cli._blas_core()
    assert core is None or core
    assert run("synth", "--rows", "2", "--cols", "2", "--out", str(tmp_path / "a")) == EXIT_OK
    assert _manifest(tmp_path / "a")["blas_core"] == core
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda lib: SimpleNamespace())  # exports nothing
    cli._blas_core.cache_clear()  # asked once per process
    try:
        assert run("synth", "--rows", "2", "--cols", "2", "--out", str(tmp_path / "b")) == EXIT_OK
    finally:
        cli._blas_core.cache_clear()
    assert _manifest(tmp_path / "b")["blas_core"] is None
    if core is None or platform.machine() not in ("x86_64", "AMD64"):
        pytest.skip("no x86-64 OpenBLAS that reports its core")
    src = str(Path(roadrank.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": "Nehalem",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-m", "roadrank", "synth", "--rows", "2", "--cols", "2",
                    "--out", str(tmp_path / "c")], env=env, check=True, capture_output=True)
    assert _manifest(tmp_path / "c")["blas_core"] == "Nehalem"


def test_manifest_digests_an_input_before_the_output_overwrites_it(pipeline, tmp_path):
    """``eval --ranking r.csv ... --out w.csv``, w.csv a hard link to r.csv,
    replaces the ranking with the report: the paths differ, so the run is not
    refused, and the manifest still records the ranking that was read."""
    _, _, scores, _, _, ranking = pipeline
    r, w = tmp_path / "r.csv", tmp_path / "w.csv"
    shutil.copy(ranking, r)
    os.link(r, w)
    read = hashlib.sha256(r.read_bytes()).hexdigest()
    assert run("eval", "--ranking", str(r), "--truth", str(scores), "--out", str(w)) == EXIT_OK
    assert r.read_text().startswith("pairs ")
    assert _manifest(w)["inputs"] == {
        str(r): read, str(scores): hashlib.sha256(scores.read_bytes()).hexdigest()}


@pytest.mark.parametrize("case", ["generate", "rank", "train", "ratings", "history"])
def test_output_naming_an_input_or_another_output_is_refused(pipeline, tmp_path, capsys, case):
    """Each run would overwrite a file it reads or writes; it is refused before
    anything is read or written, with both options named."""
    base, net_dir, scores, samples, ckpt, _ = pipeline
    net2, s2, sc = tmp_path / "net2", tmp_path / "s2.txt", tmp_path / "sc.history.csv"
    shutil.copytree(net_dir, net2)
    shutil.copy(samples, s2)
    shutil.copy(scores, sc)
    r = tmp_path / "r.csv"
    rank = ("rank", "--network", str(net2), "--ckpt", str(ckpt))
    argv, flags, clobbered = {
        "generate": (("generate", "--network", str(net2), "--out", str(net2 / "edges.csv")),
                     ("--out", "--network"), net2 / "edges.csv"),
        "rank": ((*rank, "--samples", str(s2), "--out", str(s2)), ("--out", "--samples"), s2),
        "train": (("train", "--network", str(net2), "--scores", str(sc), "--samples", str(s2),
                   "--out", str(sc)), ("--out", "--scores"), sc),
        "ratings": ((*rank, "--samples", str(s2), "--ratings-out", str(r), "--out", str(r)),
                    ("--out", "--ratings-out"), r),
        "history": (("train", "--network", str(net2), "--scores", str(sc), "--samples", str(s2),
                     "--out", str(tmp_path / "sc")), ("--out's .history.csv file", "--scores"),
                    sc),
    }[case]
    before = {p: p.read_bytes() for p in (net2 / "edges.csv", s2, sc)}
    err = invalid(capsys, *argv)
    assert f"{flags[0]} and {flags[1]} name the same file {clobbered}" in err
    assert {p: p.read_bytes() for p in before} == before
    assert not r.exists()
    assert not list(tmp_path.glob("*.manifest.json"))


def test_generate_and_train_defaults_are_the_config_dataclasses(tmp_path):
    # 20 nodes: the default 5 strata of 4 nodes put 5 nodes in validation
    net_dir, scores, samples = tmp_path / "net", tmp_path / "scores.csv", tmp_path / "s.txt"
    assert run("synth", "--rows", "4", "--cols", "5", "--out", str(net_dir)) == EXIT_OK
    assert run("generate", "--network", str(net_dir), "--out", str(scores)) == EXIT_OK
    config = _manifest(scores)["config"]
    assert {k: config[k] for k in config if k not in ("network", "out")} == \
        dataclasses.asdict(CascadeConfig())
    assert run("sample", "--network", str(net_dir), "--num", "5",
               "--out", str(samples)) == EXIT_OK
    out = tmp_path / "model.ckpt"
    assert run("train", "--network", str(net_dir), "--scores", str(scores),
               "--samples", str(samples), "--out", str(out)) == EXIT_OK
    config = _manifest(out)["config"]
    assert {k: config[k] for k in config if k not in ("network", "scores", "samples", "out")} \
        == dataclasses.asdict(TrainConfig())


def test_nomg_needs_samples_drawn_at_alpha_one(pipeline, tmp_path, capsys):
    base, net_dir, scores, samples, _, _ = pipeline
    train = ("train", "--network", str(net_dir), "--scores", str(scores), "--ablation", "NoMG",
             "--epochs", "1", "--strata", "2")
    err = invalid(capsys, *train, "--samples", str(samples), "--out", str(tmp_path / "a.ckpt"))
    assert "NoMG" in err and "alpha=1.0" in err

    walks = tmp_path / "walks.txt"
    ckpt = tmp_path / "nomg.ckpt"
    assert run("sample", "--network", str(net_dir), "--alpha", "1", "--num", "5",
               "--out", str(walks)) == EXIT_OK
    assert run(*train, "--samples", str(walks), "--out", str(ckpt)) == EXIT_OK
    rank = ("rank", "--network", str(net_dir), "--ckpt", str(ckpt),
            "--out", str(tmp_path / "r.csv"))
    assert run(*rank, "--samples", str(walks)) == EXIT_OK
    err = invalid(capsys, *rank, "--samples", str(samples))
    assert "NoMG" in err and "alpha=0.0001" in err


@pytest.mark.parametrize("command, variant", [
    ("synth", None), *((c, v) for c in ("train", "rank") for v in ("full", "NoMG", "NoBiLSTM"))])
def test_a_run_missing_a_required_input_is_refused(pipeline, tmp_path, capsys, command, variant):
    """``synth`` without --rows, and ``train`` or ``rank`` of every variant
    that encodes sequences without --samples: exit 4, one line, nothing written."""
    base, net_dir, scores, _, _, _ = pipeline
    argv = {"synth": ("synth", "--cols", "2"),
            "train": ("train", "--network", str(net_dir), "--scores", str(scores),
                      "--ablation", variant, "--epochs", "1", "--strata", "2"),
            "rank": ("rank", "--network", str(net_dir), "--ckpt", str(tmp_path / "v.ckpt"))}
    if command == "rank":
        m = load_network_dir(net_dir).m
        width = embedding_width(apply_ablation(variant), m, 8, 2)
        save_checkpoint(tmp_path / "v.ckpt", EmbedParams.init(m, 8, 2, 0),
                        RankerParams.init(width, seed=1),
                        {"variant": variant, "m": m, "x": 8, "dim": 2, "input_dim": width})
    before = sorted(tmp_path.iterdir())
    err = invalid(capsys, *argv[command], "--out", str(tmp_path / "out"))
    assert err == ("error: missing required option --rows\n" if command == "synth"
                   else f"error: variant {variant} needs --samples\n")
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_a_named_input_the_variant_does_not_read_must_still_open(pipeline, tmp_path, capsys,
                                                                  kind):
    """NoEmb reads no samples, but a --samples it names is digested for the
    manifest like every input: missing or a directory, it stops the run with
    exit 3 before anything is written."""
    base, net_dir, scores, _, _, _ = pipeline
    bad, strerror = {"missing": (tmp_path / "missing.txt", "No such file or directory"),
                     "directory": (tmp_path, "Is a directory")}[kind]
    capsys.readouterr()
    assert run("train", "--network", str(net_dir), "--scores", str(scores), "--ablation", "NoEmb",
               "--samples", str(bad), "--epochs", "1", "--strata", "2",
               "--out", str(tmp_path / "m.ckpt")) == EXIT_MISSING_INPUT
    assert capsys.readouterr().err == f"error: {bad}: {strerror}\n"
    assert list(tmp_path.iterdir()) == []


def test_v1_checkpoint_reproduces_its_ranking(tmp_path):
    """tests/data/v1 holds a roadrank-checkpoint v1 file and the ranking that
    ``rank`` wrote from it while the LSTM still held one array per gate."""
    data = Path(__file__).parent / "data" / "v1"
    out = tmp_path / "ranking.csv"
    assert run("rank", "--network", str(data / "net"), "--ckpt", str(data / "model.ckpt"),
               "--samples", str(data / "samples.txt"), "--out", str(out)) == EXIT_OK
    got = np.loadtxt(out, delimiter=",", skiprows=1)
    want = np.loadtxt(data / "ranking.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(got[:, :3], want[:, :3])  # rank, node_id, copeland
    np.testing.assert_allclose(got[:, 3], want[:, 3], rtol=0, atol=1e-12)


V1_DATA = Path(__file__).parent / "data" / "v1"
FUZZ_TOKENS = ["", "x", "-1", "0", "3", "17", "99", "0.5", "-0", "+2", "nan", "inf", "1e309",
               "0x10", "1_0", "tensor", "meta"]


# sha256 of what ``rank --ratings-out`` writes from the tests/data/v1
# checkpoint: the forward encoder's and the ranker's bits, unrounded.  Like
# every pin of trained or rated bytes it holds for one numpy version and one
# BLAS kernel family (README, "Everything is seeded"): OpenBLAS's non-FMA
# kernels move ratings.csv by 1 ulp.  Each manifest records the numpy and
# BLAS build that wrote it.
V1_RANK_SHA256 = {
    "ranking.csv": "53b8eb2531e2e688888bbcc0d69dd47454960852c08d31cba29a17dff915a84c",
    "ratings.csv": "032eac30d5ec144e164c1ef85834668ef30943b45163a162b8db1aa85be4050f",
}


def test_v1_rank_outputs_match_golden_digests(tmp_path):
    assert run("rank", "--network", str(V1_DATA / "net"), "--ckpt", str(V1_DATA / "model.ckpt"),
               "--samples", str(V1_DATA / "samples.txt"), "--ratings-out",
               str(tmp_path / "ratings.csv"), "--out", str(tmp_path / "ranking.csv")) == EXIT_OK
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in V1_RANK_SHA256}
    assert digests == V1_RANK_SHA256


@pytest.mark.parametrize("kernel", ["Haswell", "SkylakeX"])
def test_v1_rank_digests_hold_under_both_fma_kernels(tmp_path, kernel):
    """The V1_RANK_SHA256 command in a child process on an OpenBLAS FMA
    kernel forced through OPENBLAS_CORETYPE: both digests hold on each.
    Skipped where the manifest names another core, as OpenBLAS falls back
    to a kernel the CPU can run."""
    src = str(Path(roadrank.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    ranking = tmp_path / "ranking.csv"
    subprocess.run([sys.executable, "-m", "roadrank", "rank", "--network", str(V1_DATA / "net"),
                    "--ckpt", str(V1_DATA / "model.ckpt"), "--samples",
                    str(V1_DATA / "samples.txt"), "--ratings-out", str(tmp_path / "ratings.csv"),
                    "--out", str(ranking)], env=env, check=True, capture_output=True)
    core = _manifest(ranking)["blas_core"]
    if core != kernel:
        pytest.skip(f"OPENBLAS_CORETYPE={kernel} ran the {core} core")
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in V1_RANK_SHA256}
    assert digests == V1_RANK_SHA256


# sha256 of what ``train`` writes on the 6x6 grid of GOLDEN_SHA256: every
# bit of three epochs of the encoder's and the ranker's forward and backward
# passes and of Adam.  The same scope as V1_RANK_SHA256: one numpy version
# and one BLAS kernel family, which the manifest records.
TRAIN_SHA256 = {
    "model.ckpt": "779513417b83e151edff096344a7596bb46022631588ec0f641875fc3254bcc5",
    "model.ckpt.history.csv": "06869a6b46ed9ec9995e4e0654c568d776ebd9319fe39692c44ad6f1988275cf",
    "model.ckpt.splits.csv": "4863b3477d1c6bf28c3695d937a5b224f21535fbea2c308eb0b0c6a6c19c058b",
}


def test_train_outputs_match_golden_digests(tmp_path):
    net_dir = tmp_path / "net"
    assert run("synth", "--rows", "6", "--cols", "6", "--seed", "1",
               "--out", str(net_dir)) == EXIT_OK
    assert run("generate", "--network", str(net_dir),
               "--out", str(tmp_path / "scores.csv")) == EXIT_OK
    assert run("sample", "--network", str(net_dir), "--seed", "1",
               "--out", str(tmp_path / "samples.txt")) == EXIT_OK
    assert run("train", "--network", str(net_dir), "--scores", str(tmp_path / "scores.csv"),
               "--samples", str(tmp_path / "samples.txt"), "--epochs", "3", "--seed", "2",
               "--out", str(tmp_path / "model.ckpt")) == EXIT_OK
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in TRAIN_SHA256}
    assert digests == TRAIN_SHA256


# sha256 of ``train`` and ``rank --ratings-out`` on a 4x4 grid with walks of
# length 6.  From forward level 4 and backward level 3 on, every prefix of
# the sample set is distinct: the prefix index stores no map there, and
# training steps those levels one entry per sequence, which TRAIN_SHA256's
# length-4 walks never reach.  The same scope as TRAIN_SHA256.
LEN6_SHA256 = {
    "model.ckpt": "22b704c0eebd11842cdbe69e1ec57e62049eb197f9125e6d9501f4b7adbd21f7",
    "model.ckpt.history.csv": "afe66a27408f33bff13acb940317ca286cc489fc1167cae5fa9c80ee97ad188f",
    "ratings.csv": "4c0f50b1cde1c08558cb100cb37976051180c5bc87745ef4d8a2926f607f0b5d",
    "ranking.csv": "79912100164330528f3bad91bf2923dacef7febcc613819f4c45e12e77af32ab",
}


def test_training_through_all_distinct_levels_matches_golden_digests(tmp_path):
    net_dir, samples, ckpt = tmp_path / "net", tmp_path / "samples.txt", tmp_path / "model.ckpt"
    assert run("synth", "--rows", "4", "--cols", "4", "--seed", "1",
               "--out", str(net_dir)) == EXIT_OK
    assert run("generate", "--network", str(net_dir),
               "--out", str(tmp_path / "scores.csv")) == EXIT_OK
    assert run("sample", "--network", str(net_dir), "--num", "5", "--len", "6", "--seed", "2",
               "--out", str(samples)) == EXIT_OK
    seqs = load_samples(samples).sequences.reshape(-1, 6)
    assert [e is None for e in PrefixIndex(seqs).entry] == [False] * 4 + [True] * 2
    assert [e is None for e in PrefixIndex(seqs[:, ::-1]).entry] == [False] * 3 + [True] * 3
    assert run("train", "--network", str(net_dir), "--scores", str(tmp_path / "scores.csv"),
               "--samples", str(samples), "--epochs", "3", "--strata", "2", "--seed", "1",
               "--out", str(ckpt)) == EXIT_OK
    assert run("rank", "--network", str(net_dir), "--ckpt", str(ckpt), "--samples", str(samples),
               "--ratings-out", str(tmp_path / "ratings.csv"),
               "--out", str(tmp_path / "ranking.csv")) == EXIT_OK
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in LEN6_SHA256}
    assert digests == LEN6_SHA256


@pytest.fixture(scope="module")
def reader_inputs(tmp_path_factory):
    """Valid inputs for ``rank`` (checkpoint, samples), ``eval`` (ranking,
    scores), ``generate`` (edges, attributes, config), ``train`` (config) and
    ``sample`` (config): the v1 data plus a scores CSV covering its 16 nodes
    and the three configs."""
    base = tmp_path_factory.mktemp("fuzz")
    files = {name: V1_DATA / name for name in ("model.ckpt", "samples.txt", "ranking.csv")}
    files.update({name: V1_DATA / "net" / name for name in ("edges.csv", "attributes.csv")})
    files["scores.csv"] = base / "scores.csv"
    files["scores.csv"].write_text(
        "node_id,aff\n" + "".join(f"{v},{0.25 * (v % 5)!r}\n" for v in range(16)))
    files["train.cfg"] = base / "train.cfg"
    files["train.cfg"].write_text(
        "# fuzzed train settings\nstrata=2\nseed=3\nbatch=32\nlr=0.01\ndropout=0.45\n"
        "hdim=8\nx=4\nrdim=4\nablation=full\ntrain_frac=0.5\nval_frac=0.25\n")
    files["sample.cfg"] = base / "sample.cfg"
    files["sample.cfg"].write_text("# fuzzed walk settings\nalpha=0.5\nnum=3\nlen=4\nseed=2\n")
    files["generate.cfg"] = base / "generate.cfg"
    files["generate.cfg"].write_text(
        "# fuzzed cascade settings\ncapacity_reduction=0.2\nfailure_speed_fraction=0.3\n"
        "gamma=0.8\nperiods=4\nspillback_rate=0.6\nkappa=2.0\nobservation_window=0.5\n")
    return base, files


def corrupt(text: str, op: str, k: int, j: int, junk: str, token: str) -> bytes:
    """Truncate ``text`` at a byte, insert a byte that is not UTF-8, delete,
    garble or change one token of a line, or repeat a line at the end."""
    if op == "truncate":
        return text[:k % len(text)].encode()
    if op == "byte":
        data = text.encode()
        return data[:k % len(data)] + b"\xff" + data[k % len(data):]
    lines = text.splitlines(keepends=True)
    i = k % len(lines)
    if op == "delete":
        del lines[i]
    elif op == "garble":
        lines[i] = junk + "\n"
    elif op == "append":
        lines.append(lines[i])
    else:
        parts = re.split(r"([ ,=\n])", lines[i])
        words = [w for w, part in enumerate(parts) if part not in ("", " ", ",", "=", "\n")]
        if words:
            parts[words[j % len(words)]] = token
        lines[i] = "".join(parts)
    return "".join(lines).encode()


# a truncated edge list leaves nodes without out-edges, which load with a warning
@pytest.mark.filterwarnings("ignore:added self-loops")
# a garbled train.cfg can ask for more strata than the 16-node v1 network
# fills with 3 nodes each, and training warns as it reduces them
@pytest.mark.filterwarnings("ignore:too few nodes per stratum")
@settings(max_examples=600, deadline=None)
@given(target=st.sampled_from(["model.ckpt", "samples.txt", "ranking.csv", "scores.csv",
                               "edges.csv", "attributes.csv", "train.cfg", "sample.cfg",
                               "generate.cfg"]),
       op=st.sampled_from(["truncate", "byte", "delete", "garble", "token", "append"]),
       k=st.integers(0, 10**6), j=st.integers(0, 100),
       junk=st.text(alphabet="0123456789 ,.=-+einaftx", max_size=24),
       token=st.sampled_from(FUZZ_TOKENS))
def test_readers_survive_corrupted_inputs(reader_inputs, target, op, k, j, junk, token):
    """A damaged input ends in exit 0 or a ValidationError (exit 4), never
    in any other exception; every reader reads its file to the end, so a
    byte that is not UTF-8 always ends in exit 4."""
    base, files = reader_inputs
    # every example writes into a new directory: on some filesystems
    # overwriting a file costs far more than creating one
    work = Path(tempfile.mkdtemp(dir=base))
    paths = {**files, target: work / target}
    paths[target].write_bytes(corrupt(files[target].read_text(), op, k, j, junk, token))
    if target in ("model.ckpt", "samples.txt"):
        argv = ["rank", "--network", str(V1_DATA / "net"), "--ckpt", str(paths["model.ckpt"]),
                "--samples", str(paths["samples.txt"]), "--out", str(work / "out.csv")]
    elif target in ("edges.csv", "attributes.csv"):
        other = "attributes.csv" if target == "edges.csv" else "edges.csv"
        shutil.copy(files[other], work / other)
        argv = ["generate", "--network", str(work), "--out", str(work / "scores.csv")]
    elif target == "train.cfg":
        argv = ["train", "--network", str(V1_DATA / "net"), "--scores", str(paths["scores.csv"]),
                "--samples", str(paths["samples.txt"]), "--config", str(paths["train.cfg"]),
                "--epochs", "1", "--out", str(work / "fuzz.ckpt")]
    elif target in ("sample.cfg", "generate.cfg"):
        argv = [target.split(".")[0], "--network", str(V1_DATA / "net"),
                "--config", str(paths[target]), "--out", str(work / "out.txt")]
    else:
        argv = ["eval", "--ranking", str(paths["ranking.csv"]), "--truth",
                str(paths["scores.csv"]), "--out", str(work / "report.txt")]
    try:
        code = main(argv)
    except ValidationError:
        return
    assert code in ((EXIT_INVALID,) if op == "byte" else (EXIT_OK, EXIT_INVALID))
