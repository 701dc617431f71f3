import hashlib
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadrank.cli import (EXIT_INVALID, EXIT_MISSING_INPUT, EXIT_OK, EXIT_USAGE,
                          export_plotdata, main)
from roadrank.graph import ValidationError


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


def test_eval_topk_export(tmp_path):
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


def test_threads_flag_removed(tmp_path):
    assert run("sample", "--network", str(tmp_path), "--threads", "1",
               "--out", str(tmp_path / "s.txt")) == EXIT_USAGE


# the pipeline has 12 nodes, so id 12 is one past the last: a non-finite
# score must be named at its line before the id is found to be extra
@pytest.mark.parametrize("body", ["0,abc\n", "x,1.0\n", "0\n", "12,nan\n", "12,inf\n",
                                  "12,-inf\n"])
def test_eval_rejects_malformed_truth(pipeline, tmp_path, capsys, body):
    base, _, scores, _, _, ranking = pipeline
    truth = tmp_path / "truth.csv"
    truth.write_text(scores.read_text() + body)
    lines = len(scores.read_text().splitlines())
    err = invalid(capsys, "eval", "--ranking", str(ranking), "--truth", str(truth),
                  "--out", str(tmp_path / "report.txt"))
    assert f"{truth}:{lines + 1}:" in err


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


@pytest.mark.parametrize("key, value", [
    ("input_dim", None), ("input_dim", "8.5"), ("m", None), ("x", "eight"), ("dim", None),
    ("ranker.b_out", "0.5x"), ("embed.fw.w_hc", "0.1 0.2 three 0.4"),
    ("ranker.b_out", "nan"), ("ranker.b_out", "-inf"),
    ("ranker.b_out", ("2", "0.1 0.2")), ("ranker.b_out", ("1 1", "0.1")),
    ("x", "-1"), ("input_dim", "-3"), ("f2", "0"),
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
        lines, expected = kept, f"meta {key}"
    bad.write_text("".join(lines))
    err = invalid(capsys, "rank", "--network", str(net_dir), "--ckpt", str(bad),
                  "--samples", str(samples), "--out", str(tmp_path / "r.csv"))
    assert expected in err


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


@pytest.fixture(scope="module")
def reader_inputs(tmp_path_factory):
    """Valid inputs for ``rank`` (checkpoint, samples) and ``eval`` (ranking,
    scores): the v1 data plus a scores CSV covering its 16 nodes."""
    base = tmp_path_factory.mktemp("fuzz")
    files = {name: base / name for name in ("model.ckpt", "samples.txt", "ranking.csv")}
    for name, path in files.items():
        shutil.copy(V1_DATA / name, path)
    files["scores.csv"] = base / "scores.csv"
    files["scores.csv"].write_text(
        "node_id,aff\n" + "".join(f"{v},{0.25 * (v % 5)!r}\n" for v in range(16)))
    return base, files


def corrupt(text: str, op: str, k: int, j: int, junk: str, token: str) -> str:
    """Truncate ``text`` at a byte, or delete, garble or change one token of a line."""
    if op == "truncate":
        return text[:k % len(text)]
    lines = text.splitlines(keepends=True)
    i = k % len(lines)
    if op == "delete":
        del lines[i]
    elif op == "garble":
        lines[i] = junk + "\n"
    else:
        parts = re.split(r"([ ,\n])", lines[i])
        words = [w for w, part in enumerate(parts) if part not in ("", " ", ",", "\n")]
        if words:
            parts[words[j % len(words)]] = token
        lines[i] = "".join(parts)
    return "".join(lines)


@settings(max_examples=150, deadline=None)
@given(target=st.sampled_from(["model.ckpt", "samples.txt", "ranking.csv", "scores.csv"]),
       op=st.sampled_from(["truncate", "delete", "garble", "token"]),
       k=st.integers(0, 10**6), j=st.integers(0, 100),
       junk=st.text(alphabet="0123456789 ,.-+einaftx", max_size=24),
       token=st.sampled_from(FUZZ_TOKENS))
def test_readers_survive_corrupted_inputs(reader_inputs, target, op, k, j, junk, token):
    """A damaged input ends in exit 0 or a ValidationError (exit 4), never
    in any other exception."""
    base, files = reader_inputs
    paths = dict(files)
    paths[target] = base / f"bad-{target}"
    paths[target].write_text(corrupt(files[target].read_text(), op, k, j, junk, token))
    if target in ("model.ckpt", "samples.txt"):
        argv = ["rank", "--network", str(V1_DATA / "net"), "--ckpt", str(paths["model.ckpt"]),
                "--samples", str(paths["samples.txt"]), "--out", str(base / "out.csv")]
    else:
        argv = ["eval", "--ranking", str(paths["ranking.csv"]), "--truth",
                str(paths["scores.csv"]), "--out", str(base / "report.txt")]
    try:
        code = main(argv)
    except ValidationError:
        return
    assert code in (EXIT_OK, EXIT_INVALID)
