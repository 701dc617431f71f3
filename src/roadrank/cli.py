"""Command-line pipeline wiring: synthetic networks, ground-truth
generation, walk sampling, training, ranking, evaluation, baselines, and
gradient checking.  Every run writes exactly one JSON manifest alongside
its primary output so results can be replayed."""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from contextlib import nullcontext
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple, get_type_hints

import numpy as np

from . import __version__
from .baselines import betweenness_centrality, degree_centrality, pagerank
from .cascade import CascadeConfig, generate_ground_truth, import_scores, save_scores
from .checkpoint import load_checkpoint, save_checkpoint
from .graph import ValidationError, load_network_dir, open_text, read_rows, save_network
from .metrics import descending_order, report_for_ranking
from .model import PairScorer, PipelineVariant, apply_ablation
# rank_from_matrix is not called here; perfbench/spans.py spans it under this module
from .ranker import rank_blocks, rank_from_matrix  # noqa: F401
from .synth import synth_grid_network
from .training import (TrainConfig, gradient_check, stratified_split, train_model,
                       write_history)
from .walks import SampleSet, WalkConfig, load_samples, sample_walks, save_samples

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_MISSING_INPUT = 3  # a file that cannot be opened, input or output
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


class Option(NamedTuple):
    """One subcommand setting: flag ``--capacity-reduction`` or ``--config``
    key ``capacity_reduction``."""

    cast: Callable
    default: object = None
    required: bool = False
    help: str | None = None
    choices: tuple[str, ...] | None = None


def _fields(cls) -> dict[str, Option]:
    """One option per field of config dataclass ``cls``, with its type and default."""
    types = get_type_hints(cls)
    return {f.name: Option(types[f.name], f.default) for f in dataclasses.fields(cls)}


def pathname(text: str) -> Path:
    """The cast of every file and directory option: ``Path("")`` is ``.``,
    so an empty name is refused rather than read or written as the working
    directory."""
    if not text:
        raise ValueError("empty path")
    return Path(text)


# files a subcommand writes beside its --out, by the suffix added to its name
SIDE_OUTPUTS = {"train": (".history.csv", ".splits.csv")}


def _beside(out: Path, suffix: str) -> Path:
    return out.with_name(out.name + suffix)


def _run_files(command: str, options: dict[str, Option], cfg: dict,
               config_file: Path | None) -> tuple[list, list]:
    """``(inputs, outputs)``, each a list of ``(flag, path)``.  The inputs
    are every path option but ``out`` and ``*_out`` (a network directory
    stands for its two CSVs) and the --config file; the outputs are ``out``,
    ``*_out`` and the files written beside ``out``."""
    inputs = [("--config", config_file)] if config_file is not None else []
    outputs = []
    for name, opt in options.items():
        value = cfg[name]
        if opt.cast is not pathname or value is None:
            continue
        flag = "--" + name.replace("_", "-")
        if name == "out" or name.endswith("_out"):
            outputs.append((flag, value))
        elif name == "network":
            inputs += [(flag, value / "attributes.csv"), (flag, value / "edges.csv")]
        else:
            inputs.append((flag, value))
    outputs += [(f"--out's {suffix} file", _beside(cfg["out"], suffix))
                for suffix in SIDE_OUTPUTS.get(command, ())]
    return inputs, outputs


def _refuse_shared_paths(inputs: list, outputs: list) -> None:
    """An output that is also an input or another output would overwrite
    it: refuse the run before it reads or writes anything."""
    seen = {path.resolve(): flag for flag, path in inputs}
    for flag, path in outputs:
        key = path.resolve()
        if key in seen:
            raise ValidationError(f"{flag} and {seen[key]} name the same file {path}")
        seen[key] = flag


def _blas_build() -> dict | None:
    """The name and version of the BLAS numpy was built with, when numpy
    records it: trained and rated bytes hold for one BLAS kernel family."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas")
    return None if blas is None else {k: blas.get(k) for k in ("name", "version")}


def _write_manifest(command: str, cfg: dict, inputs: dict[str, str], started: str) -> None:
    """Write the manifest next to the run's output ``out``.  Timestamps are
    metadata and deliberately excluded from the byte-identical output
    guarantee."""
    out = cfg["out"]
    manifest = {
        "tool": "roadrank",
        "version": __version__,
        "numpy": np.__version__,
        "blas": _blas_build(),
        "subcommand": command,
        "config": {k: (str(v) if isinstance(v, Path) else v) for k, v in cfg.items()},
        "seed": cfg.get("seed"),
        "inputs": inputs,
        "started": started,
        "finished": datetime.now(timezone.utc).isoformat(),
    }
    with open(out / "manifest.json" if out.is_dir()
              else out.with_name(out.name + ".manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_config(path: Path, options: dict[str, Option]) -> dict[str, tuple[int, str]]:
    """``key -> (line number, value)`` for each ``key=value`` line; a key
    that is not in ``options``, a repeated key and an empty value are errors."""
    out: dict[str, tuple[int, str]] = {}
    with open_text(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = (part.strip() for part in line.partition("="))
            if not sep:
                raise ValidationError(f"{path}:{ln}: expected key=value")
            if key not in options:
                raise ValidationError(
                    f"{path}:{ln}: unknown key {key!r}; expected one of {', '.join(options)}")
            if key in out:
                raise ValidationError(f"{path}:{ln}: {key} repeats line {out[key][0]}")
            if not value:
                raise ValidationError(f"{path}:{ln}: {key} has no value")
            out[key] = ln, value
    return out


def _resolve(args: argparse.Namespace, options: dict[str, Option]) -> dict:
    """Merge flag values, --config file values, and defaults (flags win)."""
    file_values = _read_config(args.config, options) if args.config else {}
    resolved = {}
    for name, opt in options.items():
        value = getattr(args, name)
        if value is None and name in file_values:
            ln, text = file_values[name]
            try:
                value = opt.cast(text)
            except ValueError:
                raise ValidationError(
                    f"{args.config}:{ln}: {name} must be {opt.cast.__name__}, got {text!r}") from None
            if opt.choices is not None and value not in opt.choices:
                raise ValidationError(
                    f"{args.config}:{ln}: {name} must be one of {', '.join(opt.choices)}, "
                    f"got {text!r}")
        if value is None:
            value = opt.default
        if value is None and opt.required:
            raise ValidationError(f"missing required option --{name.replace('_', '-')}")
        resolved[name] = value
    return resolved


def _build(cls, cfg: dict):
    """Config dataclass ``cls`` from the resolved options named by its fields."""
    return cls(**{f.name: cfg[f.name] for f in dataclasses.fields(cls)})


def _read_node_ids(path: Path, split: str | None = None) -> list[int]:
    """Node ids from a one-column list or a CSV with a ``node_id`` header;
    when the file has a ``split`` column only rows of ``split`` are kept."""
    rows = [(ln, row) for ln, row in read_rows(path) if not row[0].startswith("#")]
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

def _variant_samples(variant: PipelineVariant, path: Path | None) -> SampleSet | None:
    """The sample set ``variant`` encodes: none for NoEmb, otherwise the
    --samples file, which an embedding variant cannot do without."""
    if not variant.use_embedding:
        return None
    if path is None:
        raise ValidationError(f"variant {variant.name} needs --samples")
    return load_samples(path)


def cmd_synth(cfg: dict) -> int:
    net = synth_grid_network(cfg["rows"], cfg["cols"], cfg["seed"])
    out = cfg["out"]
    save_network(net, out)
    print(f"wrote {net.n}-node grid network to {out}")
    return EXIT_OK


def cmd_generate(cfg: dict) -> int:
    net = load_network_dir(cfg["network"])
    scores = generate_ground_truth(net, _build(CascadeConfig, cfg))
    save_scores(scores, cfg["out"])
    print(f"wrote simulated importance scores for {net.n} nodes to {cfg['out']}")
    return EXIT_OK


def cmd_sample(cfg: dict) -> int:
    net = load_network_dir(cfg["network"])
    from .graph import normalized_views

    wcfg = WalkConfig(alpha=cfg["alpha"], num=cfg["num"], length=cfg["len"], seed=cfg["seed"])
    samples = sample_walks(net, normalized_views(net), wcfg)
    save_samples(samples, cfg["out"])
    print(f"sampled {wcfg.num} sequences of length {wcfg.length} for {net.n} nodes")
    return EXIT_OK


def cmd_train(cfg: dict) -> int:
    net = load_network_dir(cfg["network"])
    scores = import_scores(cfg["scores"], n=net.n)
    tcfg = _build(TrainConfig, cfg)
    samples = _variant_samples(apply_ablation(tcfg.ablation), cfg["samples"])
    splits = stratified_split(scores, tcfg)
    result = train_model(net, samples, scores, splits, tcfg)

    out = cfg["out"]
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
    history_suffix, splits_suffix = SIDE_OUTPUTS["train"]
    write_history(result.history, _beside(out, history_suffix), tcfg)
    with open(_beside(out, splits_suffix), "w") as fh:
        fh.write("node_id,split,stratum\n")
        for name, members in (("train", splits.train), ("val", splits.val),
                              ("test", splits.test)):
            for v in members:
                fh.write(f"{v},{name},{splits.stratum[v]}\n")
    print(f"trained {tcfg.ablation} model; best val micro-F1 "
          f"{result.best_val_micro:.4f} at epoch {result.best_epoch}")
    return EXIT_OK


def _reject_repeated_ids(path, nodes) -> None:
    ordered = sorted(nodes)
    dups = sorted({a for a, b in zip(ordered, ordered[1:]) if a == b})
    if dups:
        raise ValidationError(f"{path}: duplicate node id(s) {dups}")


def _write_ratings(fh, nodes: list[int], blocks):
    """Pass the rating blocks over ``nodes`` through, writing the
    ``i,j,rating`` header and then each block's lines to ``fh`` as it passes,
    skipping each node's rating of itself."""
    fh.write("i,j,rating\n")
    cells = [f",{j},%r\n" for j in nodes]
    for lo, r in blocks:
        lines = []
        for p, (i, row) in enumerate(zip(nodes[lo:lo + len(r)], r.tolist()), start=lo):
            others = cells[:p] + cells[p + 1:]
            if others:
                pre = str(i)
                lines.append((pre + pre.join(others)) % tuple(row[:p] + row[p + 1:]))
        fh.write("".join(lines))
        yield lo, r


def cmd_rank(cfg: dict) -> int:
    net = load_network_dir(cfg["network"])
    embed, ranker, meta = load_checkpoint(cfg["ckpt"])
    variant = apply_ablation(meta.get("variant", "full"))
    scorer = PairScorer(net, _variant_samples(variant, cfg["samples"]), embed, ranker, variant)
    if cfg["nodes"] is not None:
        nodes = sorted(_read_node_ids(cfg["nodes"], cfg["split"]))
        if not nodes:
            raise ValidationError(f"{cfg['nodes']}: no node ids")
        if not 0 <= nodes[0] <= nodes[-1] < net.n:
            raise ValidationError(f"{cfg['nodes']}: node ids must lie in 0..{net.n - 1}")
        _reject_repeated_ids(cfg["nodes"], nodes)
    else:
        nodes = list(range(net.n))
    ratings_out = cfg["ratings_out"]
    with open(ratings_out, "w") if ratings_out is not None else nullcontext() as fh:
        blocks = scorer.rating_blocks(nodes)
        result = rank_blocks(nodes, blocks if fh is None else _write_ratings(fh, nodes, blocks))
    with open(cfg["out"], "w") as fh:
        fh.write("rank,node_id,copeland,rating_sum\n")
        for pos, v in enumerate(result.order, start=1):
            fh.write(f"{pos},{v},{result.copeland[v]},{result.rating_sum[v]!r}\n")
    if result.tie_groups:
        print(f"ranked {len(nodes)} nodes ({len(result.tie_groups)} tie group(s))")
    else:
        print(f"ranked {len(nodes)} nodes")
    return EXIT_OK


def cmd_eval(cfg: dict) -> int:
    ranking = _read_node_ids(cfg["ranking"])
    if not ranking:
        raise ValidationError(f"{cfg['ranking']}: no ranked nodes")
    _reject_repeated_ids(cfg["ranking"], ranking)
    n_scores = max(ranking) + 1
    truth = import_scores(cfg["truth"])
    if truth.aff.size < n_scores:
        raise ValidationError("truth file does not cover every ranked node")
    pair_nodes = None
    if cfg["pairs"] is not None:
        pair_nodes = _read_node_ids(cfg["pairs"], cfg["split"])
        _reject_repeated_ids(cfg["pairs"], pair_nodes)
        if len(pair_nodes) < 2:
            raise ValidationError(
                f"{cfg['pairs']}: pairwise F1 needs at least 2 node ids, got {len(pair_nodes)}")
    report = report_for_ranking(ranking, truth.aff, pair_nodes)
    lines = report.lines()
    if cfg["topk"] is not None:
        if cfg["topk_out"] is None:
            raise ValidationError("--topk needs --topk-out")
        overlap = export_plotdata(ranking, truth.aff, cfg["topk"], cfg["topk_out"])
        lines.append(f"top{cfg['topk']}_overlap {overlap}")
    elif cfg["topk_out"] is not None:
        raise ValidationError("--topk-out needs --topk")
    text = "\n".join(lines) + "\n"
    with open(cfg["out"], "w") as fh:
        fh.write(text)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_baseline(cfg: dict) -> int:
    methods = {"dc": degree_centrality, "bc": betweenness_centrality, "pagerank": pagerank}
    net = load_network_dir(cfg["network"])
    values = methods[cfg["method"]](net)
    order = descending_order(range(net.n), values)
    out = cfg["out"]
    with open(out, "w") as fh:
        fh.write("rank,node_id,score\n")
        for pos, v in enumerate(order, start=1):
            fh.write(f"{pos},{v},{float(values[v])!r}\n")
    print(f"wrote {cfg['method']} ranking for {net.n} nodes to {out}")
    return EXIT_OK


def cmd_gradcheck(cfg: dict) -> int:
    from .encoder import EmbedParams
    from .graph import normalized_views
    from .metrics import labelled_pairs
    from .ranker import RankerParams

    rng_seed = cfg["seed"]
    net = synth_grid_network(2, 3, rng_seed)
    samples = sample_walks(net, normalized_views(net),
                           WalkConfig(alpha=0.5, num=3, length=4, seed=rng_seed))
    scores = generate_ground_truth(net, CascadeConfig())
    embed = EmbedParams.init(net.m, 8, 2, rng_seed)
    ranker = RankerParams.init(embed.hdim, seed=rng_seed + 1)
    scorer = PairScorer(net, samples, embed, ranker, apply_ablation("full"))
    report = gradient_check(scorer, *labelled_pairs(range(net.n), scores.aff))
    lines = [f"{name} {err:.3e}" for name, err in sorted(report.per_tensor.items())]
    lines.append(f"worst {report.worst:.3e}")
    text = "\n".join(lines) + "\n"
    with open(cfg["out"], "w") as fh:
        fh.write(text)
    sys.stdout.write(text)
    if report.worst >= 1e-4:
        print("gradient check FAILED (worst relative error >= 1e-4)", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


# ---------------------------------------------------------------------------
# options and parser
# ---------------------------------------------------------------------------

NETWORK = Option(pathname, required=True)
OUT = Option(pathname, required=True)

# subcommand -> (handler, help, options); generate and train take their
# settings' types and defaults from CascadeConfig and TrainConfig
COMMANDS: dict[str, tuple[Callable, str, dict[str, Option]]] = {
    "synth": (cmd_synth, "generate a reproducible synthetic grid network", {
        "rows": Option(int, required=True), "cols": Option(int, required=True),
        "seed": Option(int, 0), "out": OUT}),
    "generate": (cmd_generate, "simulate cascades and write importance scores",
                 {"network": NETWORK, **_fields(CascadeConfig), "out": OUT}),
    "sample": (cmd_sample, "sample fused-walk sequences for every node", {
        "network": NETWORK, "alpha": Option(float, 0.0001), "num": Option(int, 150),
        "len": Option(int, 4), "seed": Option(int, 0), "out": OUT}),
    "train": (cmd_train, "train the pairwise ranking model", {
        "network": NETWORK, "scores": Option(pathname, required=True), "samples": Option(pathname),
        **_fields(TrainConfig), "out": OUT}),
    "rank": (cmd_rank, "rank nodes with a trained checkpoint", {
        "network": NETWORK, "ckpt": Option(pathname, required=True), "samples": Option(pathname),
        "nodes": Option(pathname, help="node list or splits CSV restricting the ranking"),
        "split": Option(str, "test", help="split name when --nodes is a splits CSV"),
        "ratings_out": Option(pathname), "out": OUT}),
    "eval": (cmd_eval, "score a ranking against ground truth", {
        "ranking": Option(pathname, required=True), "truth": Option(pathname, required=True),
        "pairs": Option(pathname, help="node list or splits CSV for pairwise F1"),
        "split": Option(str, "test"), "topk": Option(int), "topk_out": Option(pathname),
        "out": OUT}),
    "baseline": (cmd_baseline, "rank nodes with a classic centrality", {
        "method": Option(str, required=True, choices=("dc", "bc", "pagerank")),
        "network": NETWORK, "out": OUT}),
    "gradcheck": (cmd_gradcheck, "finite-difference check of all gradients",
                  {"seed": Option(int, 0), "out": OUT}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roadrank",
        description="Node-importance ranking for directed, attributed road networks",
    )
    parser.add_argument("--version", action="version", version=f"roadrank {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for command, (_, help_text, options) in COMMANDS.items():
        p = subs.add_parser(command, help=help_text)
        for name, opt in options.items():
            p.add_argument(f"--{name.replace('_', '-')}", type=opt.cast, choices=opt.choices,
                           help=opt.help)
        p.add_argument("--config", type=pathname,
                       help="key=value file; flags override file values")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors (code 2)
        return int(exc.code or 0)
    handler, _, options = COMMANDS[args.subcommand]
    started = datetime.now(timezone.utc).isoformat()
    try:
        cfg = _resolve(args, options)
        inputs, outputs = _run_files(args.subcommand, options, cfg, args.config)
        _refuse_shared_paths(inputs, outputs)
        # digested before the run: the manifest records the inputs as read,
        # and a named input that cannot be read stops the run here
        digests = {str(p): _sha256(p) for _, p in inputs}
        code = handler(cfg)
        _write_manifest(args.subcommand, cfg, digests, started)
        return code
    except OSError as exc:
        if exc.filename is None:
            raise
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main())
