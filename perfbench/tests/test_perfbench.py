"""Self-tests of the benchmark: percentile selection, span arithmetic,
names against BENCHMARK.json, and a toy-size run of every workload.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import math
import random
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_is_highest_rung_with_ten_samples_beyond(n, expected):
    values = list(range(n))
    random.Random(n).shuffle(values)
    p, value, count = spans.tail_percentile(values)
    assert count == n
    assert p == expected
    if p is not None:
        assert spans.samples_beyond(p, n) >= 10
        assert value == math.ceil(round(p * n / 100, 9)) - 1  # nearest rank, 0-based values


def test_percentile_nearest_rank():
    assert spans.percentile([5, 1, 4, 2, 3], 50) == 3
    assert spans.percentile([5, 1, 4, 2, 3], 90) == 5
    assert spans.percentile([7], 99) == 7


def test_self_time_of_nested_spans():
    recorded = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 5.0, 7.0, 0], ["d", 2.0, 3.0, 1]]
    assert spans.self_times(recorded) == [5.0, 2.0, 2.0, 1.0]


def test_self_time_of_overlapping_children_counts_the_covered_union_once():
    # b and c overlap on [4, 6]; d spills past its parent's end at 10
    recorded = [["a", 0.0, 10.0, -1], ["b", 1.0, 6.0, 0], ["c", 4.0, 8.0, 0], ["d", 9.0, 12.0, 0]]
    assert spans.self_times(recorded)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_tracer_links_parents_and_summarizes():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.begin("outer")      # t=0
    inner = tracer.begin("inner")      # t=1
    tracer.end(inner)                  # t=2
    inner = tracer.begin("inner")      # t=3
    tracer.end(inner)                  # t=4
    tracer.end(outer)                  # t=5
    recorded, _ = tracer.take()
    assert [s[3] for s in recorded] == [-1, 0, 0]
    summary = spans.summarize(recorded)
    assert (summary["outer"].calls, summary["outer"].total_s, summary["outer"].self_s) == (1, 5.0, 3.0)
    assert (summary["inner"].calls, summary["inner"].total_s, summary["inner"].self_s) == (2, 2.0, 2.0)
    assert tracer.take() == ([], {})


def test_patches_cover_every_site_and_restore_originals():
    import roadrank.encoder
    import roadrank.model

    before = (roadrank.encoder._cell_forward, roadrank.model.PairScorer.__dict__["loss_and_grads"])
    with spans.Patches(spans.Tracer()) as patches:
        assert patches.missing == []
        assert roadrank.encoder._cell_forward is not before[0]
    assert (roadrank.encoder._cell_forward,
            roadrank.model.PairScorer.__dict__["loss_and_grads"]) == before


def test_host_speed_calibrates_by_the_kernel_time_near_the_interval(tmp_path):
    host = hostspeed.HostSpeed(tmp_path / "log")
    host.samples = [(float(t), 0.010) for t in range(10)] + [(float(t), 0.020) for t in range(10, 20)]
    nominal, exponent = hostspeed.NOMINAL_S, hostspeed.EXPONENT
    assert host.calibrate(2.0, 3.0, 5.0) == pytest.approx(2.0 * (nominal / 0.010) ** exponent)
    assert host.calibrate(2.0, 13.0, 15.0) == pytest.approx(2.0 * (nominal / 0.020) ** exponent)
    # too few samples near the interval: the whole run's median
    assert host.calibrate(2.0, 40.0, 41.0) == pytest.approx(2.0 * (nominal / 0.015) ** exponent)


def test_host_speed_sampler_runs_for_the_block_only(tmp_path):
    with hostspeed.HostSpeed(tmp_path / "log") as host:
        proc = host._proc
        assert proc.poll() is None
        time.sleep(3 * hostspeed.EVERY_S)
    assert proc.poll() is not None
    assert host.samples and all(c > 0 for _, c in host.samples)


def test_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
        assert "\n" not in w["why"] and len(w["why"]) <= 200
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.fixture
def scratch_dirs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK_ROOT", tmp_path / "work")
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path / "traces")
    return tmp_path


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_toy_run(workload, trace, scratch_dirs, capsys):
    result = run.run(workload, seed=3, seconds=0, trace=trace, toy=True)
    assert result["correct"], capsys.readouterr().out
    assert result["failed"] == 0 and result["attempted"] > run.SETUP_MIN_REPS
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values())
    if not trace:
        assert all(v > 0 for v in values.values())
    elif workload == "oracles-grid24":
        assert all(v == 0 for k, v in values.items() if k.startswith("encoder."))
        assert values["cascade.cascade_failure.calls"] == workloads.TOY_GRID ** 2
    else:
        assert values["encoder.lstm_fwd.self_s"] > 0
        assert (scratch_dirs / "traces" / f"{workload}-seed3.json").is_file()
    assert not (scratch_dirs / "work").exists() or not any((scratch_dirs / "work").iterdir())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns(".work", ".traces", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "train-grid10",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
