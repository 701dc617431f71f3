"""Span recording for the traced benchmark run.

The program has no tracing of its own, so the traced run wraps the calls
into each module from outside: every entry of ``SPAN_SITES`` names an
attribute to replace with a wrapper that records a span around the call.
Several modules import functions by name (``from .ranker import
pair_forward``), so each function is patched where it is looked up when
called, not where it is defined.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

# (owner, attribute, span name); owner is "module" or "module:Class".
SPAN_SITES = (
    ("roadrank.graph", "load_network", "graph.load_network"),
    ("roadrank.graph", "normalized_views", "graph.normalized_views"),
    ("roadrank.cascade", "cascade_failure", "cascade.cascade_failure"),
    ("roadrank.cli", "sample_walks", "walks.sample_walks"),
    ("roadrank.walks", "build_alias", "alias.build_alias"),
    ("roadrank.cli", "save_samples", "walks.save_samples"),
    ("roadrank.cli", "load_samples", "walks.load_samples"),
    ("roadrank.cli", "betweenness_centrality", "baselines.betweenness"),
    ("roadrank.cli", "pagerank", "baselines.pagerank"),
    ("roadrank.cli", "train_model", "training.train_model"),
    ("roadrank.training", "make_pairs", "training.make_pairs"),
    ("roadrank.training:Adam", "step", "training.adam_step"),
    ("roadrank.training", "_evaluate_split", "training.evaluate_split"),
    ("roadrank.model:PairScorer", "loss_and_grads", "model.loss_and_grads"),
    ("roadrank.model:PairScorer", "rating_matrix", "model.rating_matrix"),
    ("roadrank.encoder", "_encode_batch", "encoder.encode_fwd"),
    ("roadrank.encoder", "_cell_forward", "encoder.lstm_fwd"),
    ("roadrank.encoder", "_pool_batch", "encoder.pool"),
    ("roadrank.encoder", "_pool_backward", "encoder.pool"),
    ("roadrank.encoder", "_cell_backward", "encoder.lstm_bwd"),
    ("roadrank.encoder", "_encode_backward", "encoder.encode_bwd"),
    ("roadrank.model", "pair_forward", "ranker.pair_fwd"),
    ("roadrank.model", "pair_backward", "ranker.pair_bwd"),
    ("roadrank.cli", "rank_from_matrix", "ranker.rank_from_matrix"),
    ("roadrank.training", "rank_from_matrix", "ranker.rank_from_matrix"),
    ("roadrank.cli", "load_checkpoint", "checkpoint.load"),
    ("roadrank.cli", "report_for_ranking", "metrics.report_for_ranking"),
)

# Called hundreds of thousands of times per sampling pass: counted, not spanned.
COUNT_SITES = (
    ("roadrank.walks", "alias_draw", "alias.alias_draw.calls"),
)


def _count_work(name: str, counts: Counter, args, result) -> None:
    """Work counts taken at a span boundary, after the span has ended."""
    if name == "encoder.encode_fwd":
        counts["encoder.sequences"] += int(args[0].shape[0])
    elif name == "model.loss_and_grads":
        counts["model.batch_unique_nodes"] += int(np.unique(np.concatenate(
            [np.asarray(args[1]), np.asarray(args[2])])).size)
    elif name == "model.rating_matrix":
        z = len(args[1])
        counts["model.pairs_rated"] += z * (z - 1)
    elif name == "training.make_pairs":
        counts["training.pairs"] += len(result)
    elif name == "training.adam_step":
        counts["training.batches"] += 1
    elif name == "cascade.cascade_failure":
        counts["cascade.target_periods"] += len(result)


class Tracer:
    """Spans ``[name, start, end, parent index or -1]`` and work counters,
    kept in memory until :meth:`take` hands them over."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.clock(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def take(self) -> tuple[list[list], Counter]:
        if self._stack:
            raise RuntimeError(f"open spans at take(): {[self.spans[i][0] for i in self._stack]}")
        out = self.spans, Counter(self.counts)
        self.spans = []
        self.counts.clear()  # cleared in place: count-only wrappers hold this Counter
        return out

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            _count_work(name, self.counts, args, result)
            return result
        return spanned

    def wrap_count(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted


def _lookup(owner_spec: str, attr: str):
    """``(owner, original)`` for a site, or None when the program lacks it."""
    module, _, cls = owner_spec.partition(":")
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    if cls:
        owner = getattr(owner, cls, None)
        # the class's own function, never one inherited or already bound
        original = owner.__dict__.get(attr) if isinstance(owner, type) else None
    else:
        original = getattr(owner, attr, None)
    return (owner, original) if callable(original) else None


class Patches:
    """Installs a tracer's wrappers on every site that exists and restores
    the originals on exit.  Sites the program no longer has are listed in
    ``missing`` so a refactor shows up as a warning, not a crash."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Patches":
        for sites, wrap in ((SPAN_SITES, self.tracer.wrap), (COUNT_SITES, self.tracer.wrap_count)):
            for owner_spec, attr, name in sites:
                found = _lookup(owner_spec, attr)
                if found is None:
                    self.missing.append(f"{owner_spec}.{attr}")
                    continue
                owner, original = found
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


# ---------------------------------------------------------------------------
# arithmetic over recorded spans
# ---------------------------------------------------------------------------

def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    run_start = run_end = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children may overlap each other or spill past their parent; only the
    covered part of the parent's own interval is subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, s, e, parent in spans:
        if parent >= 0:
            children[parent].append((s, e))
    return [e - s - covered_length(children.get(i, ()), s, e)
            for i, (_, s, e, _) in enumerate(spans)]


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def summarize(spans) -> dict[str, SpanStats]:
    """Calls, total and self seconds per span name."""
    out: dict[str, SpanStats] = defaultdict(SpanStats)
    for (name, s, e, _), own in zip(spans, self_times(spans)):
        st = out[name]
        st.calls += 1
        st.total_s += e - s
        st.self_s += own
    return dict(out)


def durations(spans, name: str) -> list[float]:
    return [e - s for n, s, e, _ in spans if n == name]


# ---------------------------------------------------------------------------
# percentiles
# ---------------------------------------------------------------------------

PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def samples_beyond(p: float, n: int) -> int:
    return n - _rank(p, n)


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(p, len(ordered)) - 1]


def tail_percentile(values, min_beyond: int = 10, ladder=PERCENTILE_LADDER):
    """The highest percentile of ``ladder`` with at least ``min_beyond``
    samples beyond it, as ``(p, value, sample count)``; ``p`` is None when
    even the lowest rung has too few samples."""
    n = len(values)
    best = None
    for p in ladder:
        if samples_beyond(p, n) >= min_beyond:
            best = p
    return best, (percentile(values, best) if best is not None else None), n
