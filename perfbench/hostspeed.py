"""Host-speed calibration of the end-to-end times.

The benchmark runs on shared hosts whose speed drifts: on a 2-vCPU VM the
same code ran up to 1.4x slower for seconds to minutes at a time, so runs
of the same code landed in different speed modes.  A sampler process
times a fixed reference kernel, part of the benchmark and independent of
the program, every ``EVERY_S`` seconds for the whole run.  Each measured
interval of wall time is then reported as

    wall seconds x (NOMINAL_S / median kernel time near that interval) ** EXPONENT,

that is, in seconds of a host on which the kernel takes ``NOMINAL_S``.
No change to the program can move the kernel, so a program change moves
the reported times in full.

The program slows more than the kernel when the host does.  Across runs
on the VM, log wall time against log kernel time had slopes of 0.84
(rank-grid30), 1.16-1.34 (train-grid10) and 2.17 (oracles-grid24), with
correlations of 0.5-0.95; ``EXPONENT`` 1.5 lies between them.

The kernel's CPU time (``time.thread_time``) is what is sampled, so time
the sampler waits for a vCPU does not count.  It mixes the three kinds of
work the program does: interpreter-bound dict and string building (like
the CLI's CSV formatting), chains of small numpy matrix products (like the
LSTM cells) and strided column scans of a dense 8 MB array (like the graph
layers on the dense ``M``).  It takes about 5 ms, so the sampler keeps
about 5% of one vCPU busy.

    python3 perfbench/hostspeed.py LOG   # sample until terminated

writes one line per sample to LOG: ``time.monotonic()`` at the start of the
sample, and the kernel's CPU seconds.  ``time.monotonic()`` is
``CLOCK_MONOTONIC``, one clock for every process of the host.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

NOMINAL_S = 0.005  # about the kernel's CPU time on a 2-vCPU VM
EVERY_S = 0.1      # pause between samples
PAD_S = 1.0        # an interval is calibrated by the samples within PAD_S of it
MIN_SAMPLES = 5    # fewer in the padded interval: use every sample of the run
EXPONENT = 1.5


class Kernel:
    def __init__(self):
        rng = np.random.default_rng(20_230_523)
        self.keys = [f"k{i}" for i in range(4_000)]
        self.w = rng.standard_normal((96, 384)) * 0.1
        self.h = rng.standard_normal((64, 96))
        self.dense = rng.random((1024, 1024))

    def __call__(self) -> None:
        counts: dict[str, int] = {}
        for i, key in enumerate(self.keys):
            counts[key] = counts.get(key, 0) + i * 3 % 7
        ",".join(str(v) for v in counts.values())
        h = self.h
        for _ in range(8):
            g = h @ self.w
            h = np.tanh(g[:, :96]) * (1.0 / (1.0 + np.exp(-g[:, 96:192])))
        for j in range(0, self.dense.shape[1], 32):
            np.flatnonzero(self.dense[:, j] > 0.5)


def sample_forever(log: Path) -> None:
    """Sample until terminated, or until the benchmark that started this
    process has gone."""
    parent = os.getppid()
    kernel = Kernel()
    with open(log, "w", buffering=1) as fh:
        while os.getppid() == parent:
            t, c0 = time.monotonic(), time.thread_time()
            kernel()
            fh.write(f"{t:.6f} {time.thread_time() - c0:.9f}\n")
            time.sleep(EVERY_S)


class HostSpeed:
    """Runs the sampler process for the length of a ``with`` block; after
    it, :meth:`calibrate` turns measured wall time into calibrated time."""

    def __init__(self, log: Path):
        self.log = log
        self.samples: list[tuple[float, float]] = []
        self._proc: subprocess.Popen | None = None

    def __enter__(self) -> "HostSpeed":
        self._proc = subprocess.Popen([sys.executable, __file__, str(self.log)],
                                      stdin=subprocess.DEVNULL)
        deadline = time.monotonic() + 30.0
        while not self._read() and time.monotonic() < deadline:
            if self._proc.poll() is not None:
                raise RuntimeError(f"host-speed sampler exited {self._proc.returncode}")
            time.sleep(0.05)
        return self

    def __exit__(self, *exc) -> None:
        self._proc.terminate()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._read()

    def _read(self) -> list[tuple[float, float]]:
        try:
            lines = self.log.read_text().splitlines()
        except FileNotFoundError:
            return []
        # the last line may be cut short by a sample still being written
        self.samples = [(float(t), float(c)) for t, c in
                        (line.split() for line in lines[:-1] if len(line.split()) == 2)]
        return self.samples

    def kernel_s(self, start: float | None = None, end: float | None = None) -> float:
        """Median kernel time within PAD_S of [start, end], or of the whole
        run when that holds fewer than MIN_SAMPLES samples."""
        if start is not None:
            near = [c for t, c in self.samples if start - PAD_S <= t <= end + PAD_S]
            if len(near) >= MIN_SAMPLES:
                return statistics.median(near)
        return statistics.median(c for _, c in self.samples)

    def calibrate(self, seconds: float, start: float | None = None,
                  end: float | None = None) -> float:
        """Wall seconds measured over [start, end], in seconds of the nominal host."""
        return seconds * (NOMINAL_S / self.kernel_s(start, end)) ** EXPONENT


if __name__ == "__main__":
    sample_forever(Path(sys.argv[1]))
