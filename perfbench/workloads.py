"""The benchmark's workloads: the inputs each builds from a seed, the CLI
stages one pass runs, and the check on every stage's output.

Inputs come from the program's own ``synth``/``generate``/``sample``
subcommands and its public API; the program only ever sees the generated
files.  Every stage runs through ``roadrank.cli.main(argv)`` with the
default ``--threads`` (1, the bit-reproducible setting).
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from roadrank.cascade import CascadeConfig, ImportanceScores, import_scores, save_scores
from roadrank.checkpoint import load_checkpoint, save_checkpoint
from roadrank.cli import main as cli_main
from roadrank.encoder import EmbedParams
from roadrank.graph import load_network_dir
from roadrank.ranker import RankerParams
from roadrank.training import TrainConfig
from roadrank.walks import SampleSet, WalkConfig, load_samples, save_samples

# the paper's sampling defaults (alpha 1e-4, 150 sequences of length 4 per node)
ALPHA, NUM, LEN = 0.0001, 150, 4
TRAIN_EPOCHS = 1  # short passes, so a run holds several; two traced passes hold 152 batches
TOPK = 10
BASELINES = ("dc", "bc", "pagerank")


class CheckFailed(ValueError):
    """A stage exited 0 but its output is wrong."""


class SetupFailed(Exception):
    """A workload's inputs could not be built."""


@dataclass(frozen=True)
class Stage:
    """One CLI call of a pass.  ``outputs`` are deterministic artifacts
    whose digests must repeat on every pass; ``check`` validates them and
    returns the work counts and facts derived from them."""

    name: str
    argv: tuple[str, ...]
    outputs: tuple[Path, ...]
    check: Callable[[], dict[str, float]]


@dataclass(frozen=True)
class Inputs:
    work: Path
    seed: int
    n: int
    files: tuple[Path, ...]  # digested after every set-up


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    grid: int
    setup: Callable[[Path, int, int], Inputs]
    stages: Callable[[Inputs], list[Stage]]


def cli(*argv) -> None:
    """Run one set-up CLI call; set-up output is not part of the report."""
    argv = [str(a) for a in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli_main(argv)
    if rc != 0:
        raise SetupFailed(f"roadrank {' '.join(argv)} exited {rc}")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh) if row and not row[0].startswith("#")]


def _node_permutation(ids, n: int, what: str) -> None:
    _require(sorted(ids) == list(range(n)), f"{what} is not a permutation of 0..{n - 1}")


def _synth(work: Path, seed: int, grid: int) -> Path:
    net = work / "net"
    cli("synth", "--rows", grid, "--cols", grid, "--seed", seed, "--out", net)
    return net


# ---------------------------------------------------------------------------
# checks shared by several stages
# ---------------------------------------------------------------------------

def check_scores(path: Path, n: int) -> None:
    aff = import_scores(path, n=n).aff  # rejects missing, extra and negative ids
    _require(bool(np.isfinite(aff).all()), f"{path.name}: non-finite score")


def check_samples(path: Path, n: int) -> None:
    shape = load_samples(path).sequences.shape
    _require(shape == (n, NUM, LEN), f"{path.name}: shape {shape}, expected {(n, NUM, LEN)}")


def check_ranking_csv(path: Path, n: int, score_col: str) -> None:
    rows = _rows(path)
    header, body = rows[0], rows[1:]
    _require(header[:2] == ["rank", "node_id"], f"{path.name}: header {header}")
    col = header.index(score_col)
    _require([int(r[0]) for r in body] == list(range(1, n + 1)), f"{path.name}: ranks not 1..{n}")
    _node_permutation([int(r[1]) for r in body], n, path.name)
    scores = np.array([float(r[col]) for r in body])
    _require(bool(np.isfinite(scores).all() and (scores >= 0).all()),
             f"{path.name}: {score_col} not finite and >= 0")


# ---------------------------------------------------------------------------
# train-grid10
# ---------------------------------------------------------------------------

def setup_train(work: Path, seed: int, grid: int) -> Inputs:
    net = _synth(work, seed, grid)
    cli("generate", "--network", net, "--out", work / "scores.csv")
    cli("sample", "--network", net, "--alpha", ALPHA, "--num", NUM, "--len", LEN,
        "--seed", seed, "--out", work / "samples.txt")
    files = (net / "edges.csv", net / "attributes.csv", work / "scores.csv", work / "samples.txt")
    return Inputs(work=work, seed=seed, n=grid * grid, files=files)


def stages_train(inp: Inputs) -> list[Stage]:
    w = inp.work
    ckpt = w / "model.ckpt"
    history = w / "model.ckpt.history.csv"
    splits = w / "model.ckpt.splits.csv"
    batch = TrainConfig().batch

    def check() -> dict[str, float]:
        load_checkpoint(ckpt)
        rows = _rows(history)
        _require(rows[0][:3] == ["epoch", "train_loss", "val_micro_f1"], f"history header {rows[0]}")
        _require(len(rows) - 1 == TRAIN_EPOCHS, f"history has {len(rows) - 1} epochs")
        last = [float(v) for v in rows[-1]]
        _require(all(math.isfinite(v) for v in last), "non-finite value in history")
        val_micro = last[2]
        _require(0.0 <= val_micro <= 1.0, f"val micro-F1 {val_micro} outside [0, 1]")
        split_rows = _rows(splits)[1:]
        _node_permutation([int(r[0]) for r in split_rows], inp.n, splits.name)
        train = sum(1 for r in split_rows if r[1] == "train")
        pairs = train * (train - 1)
        return {"training.pairs": pairs,
                "training.batches": TRAIN_EPOCHS * math.ceil(pairs / batch),
                "training.val_micro_f1": val_micro}

    argv = ("train", "--network", str(w / "net"), "--scores", str(w / "scores.csv"),
            "--samples", str(w / "samples.txt"), "--epochs", str(TRAIN_EPOCHS),
            "--seed", str(inp.seed), "--out", str(ckpt))
    return [Stage("train", argv, (ckpt, history, splits), check)]


# ---------------------------------------------------------------------------
# oracles-grid24
# ---------------------------------------------------------------------------

def setup_oracles(work: Path, seed: int, grid: int) -> Inputs:
    net = _synth(work, seed, grid)
    return Inputs(work=work, seed=seed, n=grid * grid,
                  files=(net / "edges.csv", net / "attributes.csv"))


def stages_oracles(inp: Inputs) -> list[Stage]:
    w, n = inp.work, inp.n
    net = str(w / "net")
    scores, samples = w / "gen_scores.csv", w / "gen_samples.txt"

    def check_generate() -> dict[str, float]:
        check_scores(scores, n)
        return {"cascade.target_periods": n * CascadeConfig().periods}

    def check_sample() -> dict[str, float]:
        check_samples(samples, n)
        return {"walks.sequences": n * NUM}

    out = [
        Stage("generate", ("generate", "--network", net, "--out", str(scores)),
              (scores,), check_generate),
        Stage("sample", ("sample", "--network", net, "--alpha", str(ALPHA), "--num", str(NUM),
                         "--len", str(LEN), "--seed", str(inp.seed), "--out", str(samples)),
              (samples,), check_sample),
    ]
    for method in BASELINES:
        path = w / f"baseline_{method}.csv"

        def check_baseline(path=path) -> dict[str, float]:
            check_ranking_csv(path, n, "score")
            return {}

        out.append(Stage("baseline", ("baseline", "--method", method, "--network", net,
                                      "--out", str(path)), (path,), check_baseline))
    return out


# ---------------------------------------------------------------------------
# rank-grid30
# ---------------------------------------------------------------------------

def setup_rank(work: Path, seed: int, grid: int) -> Inputs:
    """Network via ``synth``; samples, checkpoint and truth via the API.

    The rank stage's cost does not depend on which vertex ids the sequences
    hold, so the samples are seeded walk-shaped sequences (node, attribute,
    node, attribute) rather than a 900-node ``sample`` run, and the truth
    scores are imported rather than simulated, which keeps set-up short.
    """
    net = _synth(work, seed, grid)
    n, m = grid * grid, load_network_dir(net).m
    cfg = TrainConfig(seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xBE7C)))
    seqs = np.empty((n, NUM, LEN), dtype=np.int64)
    seqs[:, :, 0] = np.arange(n)[:, None]
    seqs[:, :, 1::2] = n + rng.integers(0, m, size=(n, NUM, LEN // 2))
    seqs[:, :, 2::2] = rng.integers(0, n, size=(n, NUM, (LEN - 1) // 2))
    save_samples(SampleSet(sequences=seqs, n=n, m=m,
                           config=WalkConfig(alpha=ALPHA, num=NUM, length=LEN, seed=seed)),
                 work / "samples.txt")
    embed = EmbedParams.init(m, cfg.x, cfg.dim, np.random.SeedSequence((seed, 1)))
    ranker = RankerParams.init(embed.hdim, cfg.f1, cfg.f2, cfg.rdim,
                               np.random.SeedSequence((seed, 2)))
    meta = {"variant": "full", "m": m, "x": cfg.x, "dim": cfg.dim, "hdim": cfg.hdim,
            "f1": cfg.f1, "f2": cfg.f2, "rdim": cfg.rdim, "seed": seed,
            "input_dim": ranker.input_dim, "best_epoch": 0}
    save_checkpoint(work / "model.ckpt", embed, ranker, meta)
    save_scores(ImportanceScores(aff=rng.uniform(0.0, 3.0, size=n), gamma=None, periods=None,
                                 provenance="imported"), work / "truth.csv")
    files = (net / "edges.csv", net / "attributes.csv", work / "samples.txt",
             work / "model.ckpt", work / "truth.csv")
    return Inputs(work=work, seed=seed, n=n, files=files)


def stages_rank(inp: Inputs) -> list[Stage]:
    w, n = inp.work, inp.n
    ranking, ratings = w / "ranking.csv", w / "ratings.csv"
    report, topk = w / "eval.txt", w / "topk.csv"
    pairs = n * (n - 1)

    def check_rank() -> dict[str, float]:
        check_ranking_csv(ranking, n, "rating_sum")
        with open(ratings) as fh:
            _require(fh.readline().strip() == "i,j,rating", f"{ratings.name}: bad header")
            table = np.loadtxt(fh, delimiter=",", ndmin=2)
        _require(table.shape == (pairs, 3), f"{ratings.name}: {table.shape[0]} rows, expected {pairs}")
        i, j = table[:, 0].astype(np.int64), table[:, 1].astype(np.int64)
        _require(bool((i != j).all()) and np.unique(i * n + j).size == pairs,
                 f"{ratings.name}: not every ordered pair exactly once")
        r = table[:, 2]
        _require(bool(np.isfinite(r).all() and (r >= 0).all() and (r <= 1).all()),
                 f"{ratings.name}: rating outside [0, 1]")
        return {"model.pairs_rated": pairs}

    def check_eval() -> dict[str, float]:
        lines = dict(line.split(" ", 1) for line in report.read_text().splitlines())
        _require(int(lines["pairs"]) == pairs, f"eval reports {lines['pairs']} pairs, expected {pairs}")
        for key in ("micro_f1", "macro_f1", "diff"):
            _require(0.0 <= float(lines[key]) <= 1.0, f"eval {key} {lines[key]} outside [0, 1]")
        _require(int(lines[f"top{TOPK}_overlap"]) <= TOPK, "top-k overlap larger than k")
        _require(len(_rows(topk)) == TOPK + 1, f"{topk.name}: expected {TOPK} rows")
        return {"eval.pairs": pairs}

    return [
        Stage("rank", ("rank", "--network", str(w / "net"), "--ckpt", str(w / "model.ckpt"),
                       "--samples", str(w / "samples.txt"), "--ratings-out", str(ratings),
                       "--out", str(ranking)),
              (ranking, ratings), check_rank),
        Stage("eval", ("eval", "--ranking", str(ranking), "--truth", str(w / "truth.csv"),
                       "--topk", str(TOPK), "--topk-out", str(topk), "--out", str(report)),
              (report, topk), check_eval),
    ]


WORKLOADS = {w.name: w for w in (
    Workload("train-grid10",
             "10x10 grid (100 nodes), default TrainConfig and samples, 1 epoch of 76 batches of 64 "
             "pairs: isolates the BiLSTM encoder, ranker and training loop",
             10, setup_train, stages_train),
    Workload("oracles-grid24",
             "24x24 grid (576 nodes): generate, sample and dc/bc/pagerank baselines on the dense "
             "n x n graph; never calls the encoder, so the no-change control for encoder work",
             24, setup_oracles, stages_oracles),
    Workload("rank-grid30",
             "30x30 grid (900 nodes): rank all 809,100 pairs with --ratings-out, then eval --topk "
             "10; forward-only encoder, artifact loading, CSV writing and metric loops",
             30, setup_rank, stages_rank),
)}
TOY_GRID = 5
