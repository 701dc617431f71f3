"""Command-line pipeline wiring: synthetic networks, ground-truth
generation, walk sampling, training, ranking, evaluation, baselines, and
gradient checking.  Every run writes exactly one JSON manifest alongside
its primary output so results can be replayed."""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import betweenness_centrality, degree_centrality, pagerank
from .cascade import CascadeConfig, generate_ground_truth, import_scores, save_scores
from .checkpoint import load_checkpoint, save_checkpoint
from .graph import ValidationError, load_network_dir, save_network
from .metrics import descending_order, report_for_ranking
from .model import PairScorer, apply_ablation
from .ranker import rank_from_matrix
from .synth import synth_grid_network
from .training import (TrainConfig, gradient_check, stratified_split, train_model,
                       write_history)
from .walks import WalkConfig, load_samples, sample_walks, save_samples

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_MISSING_INPUT = 3
EXIT_INVALID = 4


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(anchor: Path, subcommand: str, config: dict, inputs, started: str) -> None:
    """Manifest goes next to the primary output; timestamps are metadata
    and deliberately excluded from the byte-identical output guarantee."""
    if anchor.is_dir():
        path = anchor / "manifest.json"
    else:
        path = anchor.with_name(anchor.name + ".manifest.json")
    manifest = {
        "tool": "roadrank",
        "version": __version__,
        "subcommand": subcommand,
        "config": {k: (str(v) if isinstance(v, Path) else v) for k, v in config.items()},
        "seed": config.get("seed"),
        "inputs": {str(p): _sha256(Path(p)) for p in inputs if p and Path(p).is_file()},
        "started": started,
        "finished": datetime.now(timezone.utc).isoformat(),
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _read_kv(path: Path) -> dict[str, tuple[int, str]]:
    """``key -> (line number, value)`` for each ``key=value`` line."""
    out: dict[str, tuple[int, str]] = {}
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValidationError(f"{path}:{ln}: expected key=value")
            out[key.strip()] = ln, value.strip()
    return out


def _resolve(args: argparse.Namespace, spec: dict[str, tuple]) -> dict:
    """Merge flag values, --config file values, and defaults (flags win)."""
    file_values: dict[str, tuple[int, str]] = {}
    if getattr(args, "config", None):
        file_values = _read_kv(Path(args.config))
    resolved = {}
    for name, (cast, default, required) in spec.items():
        value = getattr(args, name)
        if value is None and name in file_values:
            ln, text = file_values[name]
            try:
                value = cast(text)
            except ValueError:
                raise ValidationError(
                    f"{args.config}:{ln}: {name} must be {cast.__name__}, got {text!r}") from None
        if value is None:
            value = default
        if value is None and required:
            raise ValidationError(f"missing required option --{name.replace('_', '-')}")
        resolved[name] = value
    return resolved


def _require_file(path) -> Path:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(p)
    return p


def _require_network_dir(path) -> Path:
    p = Path(path)
    for name in ("edges.csv", "attributes.csv"):
        if not (p / name).is_file():
            raise FileNotFoundError(p / name)
    return p


def _read_node_ids(path: Path, split: str | None = None) -> list[int]:
    """Node ids from a one-column list or a CSV with a ``node_id`` header;
    when the file has a ``split`` column only rows of ``split`` are kept."""
    with open(path, newline="") as fh:
        rows = [(ln, [f.strip() for f in row]) for ln, row in enumerate(csv.reader(fh), start=1)
                if row and any(f.strip() for f in row) and not row[0].startswith("#")]
    if not rows:
        raise ValidationError(f"{path}: empty file")
    keys, data = (rows[0][1], rows[1:]) if "node_id" in rows[0][1] else (["node_id"], rows)
    col = keys.index("node_id")
    split_col = keys.index("split") if split is not None and "split" in keys else None
    ids = []
    for ln, row in data:
        if len(row) < len(keys):
            raise ValidationError(f"{path}:{ln}: expected {len(keys)} fields, got {len(row)}")
        if split_col is not None and row[split_col] != split:
            continue
        try:
            ids.append(int(row[col]))
        except ValueError:
            raise ValidationError(f"{path}:{ln}: bad node id {row[col]!r}") from None
    if split_col is not None and not ids:
        raise ValidationError(f"{path}: no nodes in split {split!r}")
    return ids


def export_plotdata(ranking, scores, k: int, path) -> int:
    """Top-k predicted vs actual node ids with hit flags; returns overlap.

    The ground-truth top-k is taken over the same node set as the ranking.
    """
    ranking = [int(v) for v in ranking]
    if k < 1 or k > len(ranking):
        raise ValidationError(f"k must be in 1..{len(ranking)}, got {k}")
    scores = np.asarray(scores, dtype=np.float64)
    actual = descending_order(ranking, scores)[:k]
    predicted = ranking[:k]
    actual_set = set(actual)
    predicted_set = set(predicted)
    overlap = len(actual_set & predicted_set)
    with open(path, "w") as fh:
        fh.write(f"# top-{k} overlap: {overlap} of {k}\n")
        fh.write("position,predicted_node,predicted_hit,actual_node,actual_hit\n")
        for pos in range(k):
            fh.write(f"{pos + 1},{predicted[pos]},{int(predicted[pos] in actual_set)},"
                     f"{actual[pos]},{int(actual[pos] in predicted_set)}\n")
    return overlap


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    started = _now()
    spec = {
        "rows": (int, None, True),
        "cols": (int, None, True),
        "seed": (int, 0, False),
        "out": (Path, None, True),
    }
    cfg = _resolve(args, spec)
    net = synth_grid_network(cfg["rows"], cfg["cols"], cfg["seed"])
    out = Path(cfg["out"])
    save_network(net, out)
    _write_manifest(out, "synth", cfg, [args.config], started)
    print(f"wrote {net.n}-node grid network to {out}")
    return EXIT_OK


def cmd_generate(args) -> int:
    started = _now()
    spec = {
        "network": (Path, None, True),
        "gamma": (float, 0.9, False),
        "periods": (int, 10, False),
        "capacity_reduction": (float, 0.10, False),
        "failure_speed_fraction": (float, 0.10, False),
        "spillback_rate": (float, 0.5, False),
        "kappa": (float, 1.0, False),
        "observation_window": (float, 1.0, False),
        "out": (Path, None, True),
    }
    cfg = _resolve(args, spec)
    net_dir = _require_network_dir(cfg["network"])
    net = load_network_dir(net_dir)
    sim = CascadeConfig(
        capacity_reduction=cfg["capacity_reduction"],
        failure_speed_fraction=cfg["failure_speed_fraction"],
        gamma=cfg["gamma"],
        periods=cfg["periods"],
        spillback_rate=cfg["spillback_rate"],
        kappa=cfg["kappa"],
        observation_window=cfg["observation_window"],
    )
    scores = generate_ground_truth(net, sim)
    save_scores(scores, cfg["out"])
    _write_manifest(Path(cfg["out"]), "generate", cfg,
                    [net_dir / "edges.csv", net_dir / "attributes.csv", args.config], started)
    print(f"wrote simulated importance scores for {net.n} nodes to {cfg['out']}")
    return EXIT_OK


def cmd_sample(args) -> int:
    started = _now()
    spec = {
        "network": (Path, None, True),
        "alpha": (float, 0.0001, False),
        "num": (int, 150, False),
        "len": (int, 4, False),
        "seed": (int, 0, False),
        "out": (Path, None, True),
    }
    cfg = _resolve(args, spec)
    net_dir = _require_network_dir(cfg["network"])
    net = load_network_dir(net_dir)
    from .graph import normalized_views

    views = normalized_views(net)
    wcfg = WalkConfig(alpha=cfg["alpha"], num=cfg["num"], length=cfg["len"], seed=cfg["seed"])
    samples = sample_walks(net, views, wcfg)
    save_samples(samples, cfg["out"])
    _write_manifest(Path(cfg["out"]), "sample", cfg,
                    [net_dir / "edges.csv", net_dir / "attributes.csv", args.config], started)
    print(f"sampled {wcfg.num} sequences of length {wcfg.length} for {net.n} nodes")
    return EXIT_OK


_TRAIN_KEYS = {
    "lr": float, "dropout": float, "batch": int, "epochs": int,
    "train_frac": float, "val_frac": float, "test_frac": float,
    "strata": int, "beta1": float, "beta2": float, "eps": float,
    "seed": int, "ablation": str, "x": int, "hdim": int,
    "f1": int, "f2": int, "rdim": int,
}


def cmd_train(args) -> int:
    started = _now()
    spec = {
        "network": (Path, None, True),
        "scores": (Path, None, True),
        "samples": (Path, None, False),
        "out": (Path, None, True),
    }
    defaults = TrainConfig()
    for key, cast in _TRAIN_KEYS.items():
        spec[key] = (cast, getattr(defaults, key), False)
    cfg = _resolve(args, spec)
    net_dir = _require_network_dir(cfg["network"])
    net = load_network_dir(net_dir)
    scores = import_scores(_require_file(cfg["scores"]), n=net.n)
    tcfg = TrainConfig(**{key: cfg[key] for key in _TRAIN_KEYS})
    variant = apply_ablation(tcfg.ablation)
    samples = None
    if variant.use_embedding:
        if cfg["samples"] is None:
            raise ValidationError(f"ablation {tcfg.ablation} needs --samples")
        samples = load_samples(_require_file(cfg["samples"]))

    splits = stratified_split(scores, tcfg)
    result = train_model(net, samples, scores, splits, tcfg)

    out = Path(cfg["out"])
    meta = {
        "variant": tcfg.ablation,
        "m": net.m,
        "x": tcfg.x,
        "dim": tcfg.dim,
        "hdim": tcfg.hdim,
        "f1": tcfg.f1,
        "f2": tcfg.f2,
        "rdim": tcfg.rdim,
        "seed": tcfg.seed,
        "input_dim": result.ranker.input_dim,
        "best_epoch": result.best_epoch,
    }
    save_checkpoint(out, result.embed, result.ranker, meta)
    write_history(result.history, out.with_name(out.name + ".history.csv"), tcfg)
    with open(out.with_name(out.name + ".splits.csv"), "w") as fh:
        fh.write("node_id,split,stratum\n")
        for name, members in (("train", splits.train), ("val", splits.val),
                              ("test", splits.test)):
            for v in members:
                fh.write(f"{v},{name},{splits.stratum[v]}\n")
    _write_manifest(out, "train", cfg,
                    [net_dir / "edges.csv", net_dir / "attributes.csv",
                     cfg["scores"], cfg["samples"], args.config], started)
    print(f"trained {tcfg.ablation} model; best val micro-F1 "
          f"{result.best_val_micro:.4f} at epoch {result.best_epoch}")
    return EXIT_OK


def cmd_rank(args) -> int:
    started = _now()
    spec = {
        "network": (Path, None, True),
        "ckpt": (Path, None, True),
        "samples": (Path, None, False),
        "nodes": (Path, None, False),
        "split": (str, "test", False),
        "ratings_out": (Path, None, False),
        "out": (Path, None, True),
    }
    cfg = _resolve(args, spec)
    net_dir = _require_network_dir(cfg["network"])
    net = load_network_dir(net_dir)
    embed, ranker, meta = load_checkpoint(_require_file(cfg["ckpt"]))
    variant = apply_ablation(meta.get("variant", "full"))
    samples = None
    if variant.use_embedding:
        if cfg["samples"] is None:
            raise ValidationError(f"checkpoint variant {variant.name} needs --samples")
        samples = load_samples(_require_file(cfg["samples"]))
    scorer = PairScorer(net, samples, embed, ranker, variant)
    if cfg["nodes"] is not None:
        nodes = sorted(_read_node_ids(_require_file(cfg["nodes"]), cfg["split"]))
        if not nodes:
            raise ValidationError(f"{cfg['nodes']}: no node ids")
        if not 0 <= nodes[0] <= nodes[-1] < net.n:
            raise ValidationError(f"{cfg['nodes']}: node ids must lie in 0..{net.n - 1}")
        dups = sorted({a for a, b in zip(nodes, nodes[1:]) if a == b})
        if dups:
            raise ValidationError(f"{cfg['nodes']}: duplicate node id(s) {dups}")
    else:
        nodes = list(range(net.n))
    matrix = scorer.rating_matrix(nodes)
    result = rank_from_matrix(matrix, nodes)
    out = Path(cfg["out"])
    with open(out, "w") as fh:
        fh.write("rank,node_id,copeland,rating_sum\n")
        for pos, v in enumerate(result.order, start=1):
            fh.write(f"{pos},{v},{result.copeland[v]},{result.rating_sum[v]!r}\n")
    if cfg["ratings_out"] is not None:
        with open(cfg["ratings_out"], "w") as fh:
            fh.write("i,j,rating\n")
            for i, row in zip(nodes, matrix.tolist()):
                fh.write("".join(f"{i},{j},{r!r}\n" for j, r in zip(nodes, row) if i != j))
    _write_manifest(out, "rank", cfg,
                    [net_dir / "edges.csv", net_dir / "attributes.csv",
                     cfg["ckpt"], cfg["samples"], cfg["nodes"], args.config], started)
    if result.tie_groups:
        print(f"ranked {len(nodes)} nodes ({len(result.tie_groups)} tie group(s))")
    else:
        print(f"ranked {len(nodes)} nodes")
    return EXIT_OK


def cmd_eval(args) -> int:
    started = _now()
    spec = {
        "ranking": (Path, None, True),
        "truth": (Path, None, True),
        "pairs": (Path, None, False),
        "split": (str, "test", False),
        "topk": (int, None, False),
        "topk_out": (Path, None, False),
        "out": (Path, None, True),
    }
    cfg = _resolve(args, spec)
    ranking = _read_node_ids(_require_file(cfg["ranking"]))
    if not ranking:
        raise ValidationError(f"{cfg['ranking']}: no ranked nodes")
    n_scores = max(ranking) + 1
    truth = import_scores(_require_file(cfg["truth"]))
    if truth.aff.size < n_scores:
        raise ValidationError("truth file does not cover every ranked node")
    pair_nodes = None
    if cfg["pairs"] is not None:
        pair_nodes = _read_node_ids(_require_file(cfg["pairs"]), cfg["split"])
    report = report_for_ranking(ranking, truth.aff, pair_nodes)
    lines = report.lines()
    if cfg["topk"] is not None:
        if cfg["topk_out"] is None:
            raise ValidationError("--topk needs --topk-out")
        overlap = export_plotdata(ranking, truth.aff, cfg["topk"], cfg["topk_out"])
        lines.append(f"top{cfg['topk']}_overlap {overlap}")
    text = "\n".join(lines) + "\n"
    out = Path(cfg["out"])
    with open(out, "w") as fh:
        fh.write(text)
    _write_manifest(out, "eval", cfg,
                    [cfg["ranking"], cfg["truth"], cfg["pairs"], args.config], started)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_baseline(args) -> int:
    started = _now()
    spec = {
        "method": (str, None, True),
        "network": (Path, None, True),
        "out": (Path, None, True),
    }
    cfg = _resolve(args, spec)
    methods = {"dc": degree_centrality, "bc": betweenness_centrality, "pagerank": pagerank}
    if cfg["method"] not in methods:
        raise ValidationError(f"unknown baseline {cfg['method']!r}; expected dc, bc or pagerank")
    net_dir = _require_network_dir(cfg["network"])
    net = load_network_dir(net_dir)
    values = methods[cfg["method"]](net)
    order = descending_order(range(net.n), values)
    out = Path(cfg["out"])
    with open(out, "w") as fh:
        fh.write("rank,node_id,score\n")
        for pos, v in enumerate(order, start=1):
            fh.write(f"{pos},{v},{float(values[v])!r}\n")
    _write_manifest(out, "baseline", cfg,
                    [net_dir / "edges.csv", net_dir / "attributes.csv", args.config], started)
    print(f"wrote {cfg['method']} ranking for {net.n} nodes to {out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    started = _now()
    spec = {
        "seed": (int, 0, False),
        "out": (Path, None, True),
    }
    cfg = _resolve(args, spec)
    from .encoder import EmbedParams
    from .graph import normalized_views
    from .metrics import labelled_pairs
    from .ranker import RankerParams

    rng_seed = cfg["seed"]
    net = synth_grid_network(2, 3, rng_seed)
    views = normalized_views(net)
    samples = sample_walks(net, views, WalkConfig(alpha=0.5, num=3, length=4, seed=rng_seed))
    scores = generate_ground_truth(net, CascadeConfig())
    embed = EmbedParams.init(net.m, 8, 2, rng_seed)
    ranker = RankerParams.init(embed.hdim, seed=rng_seed + 1)
    scorer = PairScorer(net, samples, embed, ranker, apply_ablation("full"))
    report = gradient_check(scorer, *labelled_pairs(range(net.n), scores.aff))
    lines = [f"{name} {err:.3e}" for name, err in sorted(report.per_tensor.items())]
    lines.append(f"worst {report.worst:.3e}")
    text = "\n".join(lines) + "\n"
    out = Path(cfg["out"])
    with open(out, "w") as fh:
        fh.write(text)
    _write_manifest(out, "gradcheck", cfg, [args.config], started)
    sys.stdout.write(text)
    if report.worst >= 1e-4:
        print("gradient check FAILED (worst relative error >= 1e-4)", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roadrank",
        description="Node-importance ranking for directed, attributed road networks",
    )
    parser.add_argument("--version", action="version", version=f"roadrank {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("synth", help="generate a reproducible synthetic grid network")
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", type=Path)
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("generate", help="simulate cascades and write importance scores")
    p.add_argument("--network", type=Path)
    p.add_argument("--gamma", type=float)
    p.add_argument("--periods", type=int)
    p.add_argument("--capacity-reduction", dest="capacity_reduction", type=float)
    p.add_argument("--failure-speed-fraction", dest="failure_speed_fraction", type=float)
    p.add_argument("--spillback-rate", dest="spillback_rate", type=float)
    p.add_argument("--kappa", type=float)
    p.add_argument("--observation-window", dest="observation_window", type=float)
    p.add_argument("--out", type=Path)
    p.set_defaults(func=cmd_generate)

    p = subs.add_parser("sample", help="sample fused-walk sequences for every node")
    p.add_argument("--network", type=Path)
    p.add_argument("--alpha", type=float)
    p.add_argument("--num", type=int)
    p.add_argument("--len", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", type=Path)
    p.set_defaults(func=cmd_sample)

    p = subs.add_parser("train", help="train the pairwise ranking model")
    p.add_argument("--network", type=Path)
    p.add_argument("--scores", type=Path)
    p.add_argument("--samples", type=Path)
    for key, cast in _TRAIN_KEYS.items():
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=cast)
    p.add_argument("--out", type=Path)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("rank", help="rank nodes with a trained checkpoint")
    p.add_argument("--network", type=Path)
    p.add_argument("--ckpt", type=Path)
    p.add_argument("--samples", type=Path)
    p.add_argument("--nodes", type=Path, help="node list or splits CSV restricting the ranking")
    p.add_argument("--split", type=str, help="split name when --nodes is a splits CSV")
    p.add_argument("--ratings-out", dest="ratings_out", type=Path)
    p.add_argument("--out", type=Path)
    p.set_defaults(func=cmd_rank)

    p = subs.add_parser("eval", help="score a ranking against ground truth")
    p.add_argument("--ranking", type=Path)
    p.add_argument("--truth", type=Path)
    p.add_argument("--pairs", type=Path, help="node list or splits CSV for pairwise F1")
    p.add_argument("--split", type=str)
    p.add_argument("--topk", type=int)
    p.add_argument("--topk-out", dest="topk_out", type=Path)
    p.add_argument("--out", type=Path)
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("baseline", help="rank nodes with a classic centrality")
    p.add_argument("--method", type=str, choices=["dc", "bc", "pagerank"])
    p.add_argument("--network", type=Path)
    p.add_argument("--out", type=Path)
    p.set_defaults(func=cmd_baseline)

    p = subs.add_parser("gradcheck", help="finite-difference check of all gradients")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", type=Path)
    p.set_defaults(func=cmd_gradcheck)

    for p in subs.choices.values():
        p.add_argument("--config", type=Path, default=None,
                       help="key=value file; flags override file values")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors (code 2)
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: missing input: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main())
