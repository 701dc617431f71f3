"""Reproducible synthetic grid networks for tests and benchmarks."""

from __future__ import annotations

import numpy as np

from .graph import RoadNetwork, ValidationError

ATTR_NAMES = ("limiv", "nlan", "len", "vol", "avgv")


def synth_grid_network(rows: int, cols: int, seed: int) -> RoadNetwork:
    """Bidirectional 4-neighbor grid with randomized segment attributes.

    Speed limits and lane counts come from small discrete menus; volumes
    are drawn relative to each segment's capacity so some segments sit
    near saturation, which keeps cascade simulations interesting.
    Byte-identical given the same (rows, cols, seed).
    """
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValidationError("grid needs at least 2 nodes")
    n = rows * cols

    def nid(r: int, c: int) -> int:
        return r * cols + c

    edges = [(nid(r, c), nid(r + dr, c + dc))
             for r in range(rows) for c in range(cols)
             for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0))
             if 0 <= r + dr < rows and 0 <= c + dc < cols]

    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x9215)))
    limiv = rng.choice([30.0, 50.0, 60.0, 80.0], size=n)
    nlan = rng.integers(1, 4, size=n).astype(np.float64)
    length = rng.uniform(50.0, 500.0, size=n)
    vol = rng.uniform(0.2, 1.3, size=n) * nlan * limiv
    avgv = rng.uniform(0.3, 1.0, size=n) * limiv
    A = np.column_stack([limiv, nlan, length, vol, avgv])

    src, dst = np.array(edges, dtype=np.int64).T
    return RoadNetwork(n=n, m=len(ATTR_NAMES), src=src, dst=dst, A=A, attr_names=ATTR_NAMES)
