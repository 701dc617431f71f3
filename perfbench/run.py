"""Benchmark of the roadrank pipeline.

    python3 perfbench/run.py --workload train-grid10 --seed 1 --seconds 30 --trace 0

One workload per process.  The benchmark builds the workload's inputs from
``--seed`` (set-up, repeated and timed), then runs passes over the
workload's CLI stages through ``roadrank.cli.main`` as a closed loop (one
caller, one stage at a time) until ``--seconds`` have elapsed.  Every
stage's output is checked.  With ``--trace 0`` it reports the end-to-end
metrics, calibrated for the host's speed (``hostspeed.py``); with ``--trace 1`` it spends a quarter of the time untraced and
the rest with spans recorded around each module's calls, and reports the
per-layer metrics.  A readable report comes first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = HERE / ".work"
TRACE_DIR = HERE / ".traces"
# Set-up is repeated in slots spread over the run: a slot repeats it until
# SETUP_SLOT_SECONDS are spent, and runs after a stage call once SETUP_EVERY_SECONDS
# have passed since the last slot.  A run ends with at least SETUP_MIN_REPS repeats.
SETUP_MIN_REPS, SETUP_SLOT_SECONDS, SETUP_EVERY_SECONDS = 5, 0.25, 4.0
PASS_LIMIT = 2.0

END_TO_END = {"pipeline_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

STAGES = ("generate", "sample", "baseline", "train", "rank", "eval")
SELF_TIMED = (
    "encoder.lstm_fwd", "encoder.lstm_bwd", "encoder.encode_fwd", "encoder.encode_bwd",
    "encoder.pool", "model.loss_and_grads", "model.rating_matrix", "ranker.pair_fwd",
    "ranker.pair_bwd", "ranker.rank_from_matrix", "training.train_model",
    "training.adam_step", "training.evaluate_split", "training.make_pairs",
    "cascade.cascade_failure", "alias.build_alias", "walks.sample_walks",
    "walks.save_samples", "walks.load_samples", "baselines.betweenness",
    "baselines.pagerank", "graph.load_network", "graph.normalized_views",
    "checkpoint.load", "metrics.report_for_ranking",
) + tuple(f"cli.{s}" for s in STAGES)
SPAN_CALLS = ("cascade.cascade_failure", "alias.build_alias")
WORK_COUNTS = ("encoder.sequences", "training.batches", "training.pairs",
               "cascade.target_periods", "alias.alias_draw.calls", "model.pairs_rated")
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in SELF_TIMED},
    **{f"{name}.calls": "count" for name in SPAN_CALLS},
    **{name: "count" for name in WORK_COUNTS},
    **{f"stage.{s}_s": "s" for s in STAGES},
    "model.loss_and_grads.p50_ms": "ms",
    "model.loss_and_grads.p90_ms": "ms",
    "model.unique_nodes_per_batch": "count",
    "alias.tables_per_draw": "ratio",
    "encoder.share_of_train": "ratio",
    "training.val_micro_f1": "ratio",
    "io.bytes_written": "bytes",
    "trace.overhead_pct": "%",
}


def import_program():
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "roadrank" / "__init__.py").is_file():
        sys.exit(f"perfbench: roadrank sources not found under {src}")
    sys.path.insert(0, str(src))
    import roadrank

    if Path(roadrank.__file__).resolve().parent != (src / "roadrank").resolve():
        sys.exit(f"perfbench: imported roadrank from {roadrank.__file__}, not from {src}")


def blas_threads() -> int | None:
    """OpenBLAS's thread count, asked of the library numpy loaded."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for lib in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            getter = getattr(dll, fn, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def machine_facts() -> dict:
    import numpy as np

    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "roadrank_threads": 1}


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def median(values, default=0.0) -> float:
    return statistics.median(values) if values else default


class SetupRepeats:
    """Times the workload's set-up again and again, spread over the whole run.

    The first repeat builds the inputs the passes use; later ones build into
    a directory of their own and are only timed and digested.  The host's
    speed shifts in phases that last seconds, so set-up is sampled across
    the run rather than only at its start.  Every repeat must produce the
    inputs of the first byte for byte.
    """

    def __init__(self, wl, work: Path, seed: int, grid: int):
        self.wl, self.work, self.seed, self.grid = wl, work, seed, grid
        self.times: list[float] = []
        self.windows: list[tuple[float, float]] = []  # time.monotonic() at start and end
        self.digests: list[dict[str, str]] = []
        self.last_slot = 0.0

    def _once(self, path: Path):
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        t0 = time.monotonic()
        inputs = self.wl.setup(path, self.seed, self.grid)
        t1 = time.monotonic()
        self.times.append(t1 - t0)
        self.windows.append((t0, t1))
        self.digests.append({p.name: sha256(p) for p in inputs.files})
        return inputs

    def first(self):
        inputs = self._once(self.work / "inputs")
        self.slot()
        return inputs

    def slot(self) -> None:
        start = time.perf_counter()
        self._once(self.work / "repeat")
        while time.perf_counter() - start < SETUP_SLOT_SECONDS:
            self._once(self.work / "repeat")
        self.last_slot = time.perf_counter()

    def between_stages(self) -> None:
        if time.perf_counter() - self.last_slot >= SETUP_EVERY_SECONDS:
            self.slot()

    def top_up(self) -> None:
        while len(self.times) < SETUP_MIN_REPS:
            self._once(self.work / "repeat")

    def mismatches(self) -> int:
        return sum(d != self.digests[0] for d in self.digests)


class Passes:
    """Runs passes over a workload's stages and keeps what they produced.

    The first pass that gets through a stage is checked in full; every
    later pass must reproduce that pass's artifact digests byte for byte.
    ``between_stages`` is called after each untraced stage call.
    """

    def __init__(self, stages, cli_main, between_stages):
        self.stages = stages
        self.cli_main = cli_main
        self.between_stages = between_stages
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference: dict[int, dict[str, str]] = {}
        self.facts: dict[str, float] = {}
        self.untraced: list[dict[str, float]] = []
        self.calls: list[list[tuple[float, float]]] = []  # stage call intervals, untraced passes
        self.traced: list[dict[str, float]] = []
        self.traces: list[tuple[list, Counter]] = []

    def run_for(self, seconds: float, tracer=None) -> None:
        """Passes until ``seconds`` have elapsed, at least one; a pass that,
        judged by the last one, would end after PASS_LIMIT x ``seconds``
        is not started, so that runs of long passes stay bounded."""
        start = last = time.perf_counter()
        while True:
            self.one_pass(tracer)
            now = time.perf_counter()
            if now - start >= seconds or 2 * now - last - start > PASS_LIMIT * seconds:
                return
            last = now

    def one_pass(self, tracer=None) -> None:
        times: dict[str, float] = defaultdict(float)
        calls: list[tuple[float, float]] = []
        for k, stage in enumerate(self.stages):
            self.attempted += 1
            ok, t0, t1 = self._call(stage, tracer)
            times[stage.name] += t1 - t0
            calls.append((t0, t1))
            if not (ok and self._verify(k, stage)):
                self.failed += 1
            if not tracer:
                self.between_stages()
        if tracer:
            self.traced.append(dict(times))
            self.traces.append(tracer.take())
        else:
            self.untraced.append(dict(times))
            self.calls.append(calls)

    def _call(self, stage, tracer) -> tuple[bool, float, float]:
        """Runs one stage; returns whether it exited 0, and its start and
        end on ``time.monotonic()``, the clock the host-speed samples use."""
        span = tracer.begin(f"cli.{stage.name}") if tracer else None
        t0 = time.monotonic()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.cli_main(list(stage.argv))
        except Exception:  # a crash is one failed call; the run goes on
            traceback.print_exc()
            rc = None
        finally:
            t1 = time.monotonic()
            if tracer:
                tracer.end(span)
        if rc != 0:
            self.errors.append(f"{' '.join(stage.argv[:3])}: exit {rc}")
        return rc == 0, t0, t1

    def _verify(self, k: int, stage) -> bool:
        try:
            digests = {p.name: sha256(p) for p in stage.outputs}
            if k not in self.reference:
                self.facts.update(stage.check())
                self.facts.update({f"bytes.{p.name}": p.stat().st_size for p in stage.outputs})
                self.reference[k] = digests
        except (OSError, ValueError, KeyError, IndexError) as exc:  # CheckFailed is a ValueError
            self.errors.append(f"{stage.name}: {type(exc).__name__}: {exc}")
            return False
        if digests != self.reference[k]:
            self.errors.append(f"{stage.name}: artifact digests differ from the first pass")
            return False
        return True

    def pass_seconds(self, traced: bool) -> float:
        return median([sum(t.values()) for t in (self.traced if traced else self.untraced)])


def check_counts(passes: Passes) -> None:
    """Traced work counts must repeat exactly on every traced pass and agree
    with the counts derived from the checked outputs."""
    if not passes.traces:
        return
    first = passes.traces[0][1]
    for _, counts in passes.traces[1:]:
        if counts != first:
            passes.errors.append(f"work counts differ between traced passes: "
                                 f"{dict(counts)} vs {dict(first)}")
            passes.failed += len(passes.stages)
    for key, value in first.items():
        if key in passes.facts and passes.facts[key] != value:
            passes.errors.append(f"{key}: traced {value}, derived from outputs {passes.facts[key]}")
            passes.failed += 1


def layer_metrics(passes: Passes, spans_mod) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from the traced passes, plus report lines."""
    summaries = [spans_mod.summarize(spans) for spans, _ in passes.traces]
    counts = passes.traces[0][1] if passes.traces else Counter()
    out: dict[str, float] = {}
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = median([s[name].self_s if name in s else 0.0 for s in summaries])
    for name in SPAN_CALLS:
        out[f"{name}.calls"] = median([s[name].calls if name in s else 0 for s in summaries])
    for name in WORK_COUNTS:
        out[name] = counts.get(name, 0)
    for stage in STAGES:
        out[f"stage.{stage}_s"] = median([t[stage] for t in passes.untraced if stage in t])

    lines = []
    batch_ms = [1e3 * d for spans, _ in passes.traces
                for d in spans_mod.durations(spans, "model.loss_and_grads")]
    out["model.loss_and_grads.p50_ms"] = spans_mod.percentile(batch_ms, 50) if batch_ms else 0.0
    out["model.loss_and_grads.p90_ms"] = spans_mod.percentile(batch_ms, 90) if batch_ms else 0.0
    if batch_ms:
        p, value, n = spans_mod.tail_percentile(batch_ms)
        tail = f"p{p:g} {value:.3f} ms" if p is not None else "none"
        lines.append(f"loss_and_grads per batch: {n} samples, "
                     f"p50 {out['model.loss_and_grads.p50_ms']:.3f} ms, "
                     f"p90 {out['model.loss_and_grads.p90_ms']:.3f} ms "
                     f"({spans_mod.samples_beyond(90, n)} beyond); "
                     f"highest percentile with >= 10 beyond: {tail}")
    per_pass = len(batch_ms) / len(passes.traces) if batch_ms else 0
    out["model.unique_nodes_per_batch"] = (counts.get("model.batch_unique_nodes", 0) / per_pass
                                           if per_pass else 0.0)
    draws = counts.get("alias.alias_draw.calls", 0)
    out["alias.tables_per_draw"] = out["alias.build_alias.calls"] / draws if draws else 0.0

    train_total = median([s["cli.train"].total_s for s in summaries if "cli.train" in s])
    enc = {label: median([sum(st.self_s for k, st in s.items() if k.startswith(prefix))
                          for s in summaries])
           for label, prefix in (("encoder", "encoder."), ("lstm_bwd", "encoder.lstm_bwd"),
                                 ("lstm_fwd", "encoder.lstm_fwd"),
                                 ("encode fwd+bwd", "encoder.encode"))}
    out["encoder.share_of_train"] = enc["encoder"] / train_total if train_total else 0.0
    if train_total:
        lines.append("share of traced train time: " + ", ".join(
            f"{k} {100 * v / train_total:.1f}%" for k, v in enc.items()))
    out["training.val_micro_f1"] = passes.facts.get("training.val_micro_f1", 0.0)
    out["io.bytes_written"] = sum(v for k, v in passes.facts.items() if k.startswith("bytes."))
    untraced = passes.pass_seconds(traced=False)
    out["trace.overhead_pct"] = (100.0 * (passes.pass_seconds(traced=True) / untraced - 1.0)
                                 if untraced else 0.0)

    if summaries:
        lines.append(f"{'span':34s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s}  (first traced pass)")
        for name, st in sorted(summaries[0].items(), key=lambda kv: -kv[1].self_s):
            lines.append(f"{name:34s} {st.calls:9d} {st.total_s:10.4f} {st.self_s:10.4f}")
    return out, lines


def write_span_dump(path: Path, workload: str, seed: int, passes: Passes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "fields": ["name", "start", "end", "parent"],
                   "passes": [{"spans": spans, "counts": dict(counts)}
                              for spans, counts in passes.traces]}, fh)


def run(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    """One benchmark run; prints the readable report and returns the result.
    ``toy`` shrinks every grid to 5x5 for the self-tests."""
    import hostspeed
    import spans as spans_mod
    import workloads
    from roadrank.cli import main as cli_main

    wl = workloads.WORKLOADS[workload]
    grid = workloads.TOY_GRID if toy else wl.grid
    print(f"workload {wl.name}: {wl.why}")
    print(f"seed {seed}, grid {grid}x{grid}, seconds {seconds:g}, trace {int(trace)}, "
          f"closed loop: 1 caller, 1 stage at a time")
    print("machine " + json.dumps(machine_facts()))

    work = WORK_ROOT / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        with hostspeed.HostSpeed(work / "hostspeed.log") as host:
            setup = SetupRepeats(wl, work, seed, grid)
            passes = Passes(wl.stages(setup.first()), cli_main, setup.between_stages)
            missing: list[str] = []
            if trace:
                passes.run_for(seconds / 4)
                tracer = spans_mod.Tracer()
                with spans_mod.Patches(tracer) as patches:
                    missing = patches.missing
                    passes.run_for(3 * seconds / 4, tracer)
                check_counts(passes)
                write_span_dump(TRACE_DIR / f"{wl.name}-seed{seed}.json", wl.name, seed, passes)
            else:
                passes.run_for(seconds)
            setup.top_up()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setup_times = setup.times
    print(f"setup wall s x{len(setup_times)}, median {median(setup_times):.4f}: "
          + " ".join(f"{t:.4f}" for t in setup_times[:20]))
    print(f"host kernel x{len(host.samples)}: median {1e3 * host.kernel_s():.3f} ms "
          f"(nominal {1e3 * hostspeed.NOMINAL_S:.3f} ms)")
    passes.attempted += len(setup_times)
    if setup.mismatches():
        passes.failed += setup.mismatches()
        passes.errors.append("set-up produced different inputs on repeats")

    for kind, rows in (("pass", passes.untraced), ("traced pass", passes.traced)):
        for i, times in enumerate(rows, start=1):
            print(f"{kind} {i}: " + " ".join(f"{k}={v:.4f}" for k, v in times.items())
                  + f" total={sum(times.values()):.4f}")
    print("work counts and facts " + json.dumps(dict(sorted(passes.facts.items()))))
    for k in sorted(passes.reference):
        for name, digest in passes.reference[k].items():
            print(f"digest {name} {digest[:16]}")
    for name in missing:
        print(f"warning: trace site missing from the program: {name}")
    for err in passes.errors:
        print(f"error: {err}")
    print(f"error_rate {passes.failed / passes.attempted:.4f} ({passes.failed} of {passes.attempted})")

    if trace:
        metrics, lines = layer_metrics(passes, spans_mod)
        for line in lines:
            print(line)
        units = PER_LAYER
    else:
        print(f"pipeline wall s {passes.pass_seconds(traced=False):.4f}")
        metrics = {"pipeline_s": median([sum(host.calibrate(t1 - t0, t0, t1) for t0, t1 in calls)
                                         for calls in passes.calls]),
                   "setup_s": median([host.calibrate(t, *w)
                                      for t, w in zip(setup_times, setup.windows)]),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        units = END_TO_END
    return {"correct": passes.failed == 0 and not passes.errors,
            "attempted": passes.attempted, "failed": passes.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"expected one of {sorted(workloads.WORKLOADS)}")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except workloads.SetupFailed as exc:
        sys.exit(f"perfbench: set-up failed: {exc}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
