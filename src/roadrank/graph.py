"""Road-network data model: file ingestion, validation, and the two
normalized views (column-stochastic adjacency, row-normalized attributes)
that drive every sampling probability downstream."""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class ValidationError(ValueError):
    """An input file or data structure violates a documented contract."""


@dataclass(frozen=True)
class RoadNetwork:
    """Directed, unweighted, attributed graph over road segments.

    Nodes are dense integer ids ``0..n-1``.  ``M[i, j] == 1`` iff there is
    a directed edge from segment ``i`` to segment ``j``.  ``A`` holds one
    non-negative attribute row per node; every row has at least one
    strictly positive entry, and every node has out-degree >= 1 (sinks are
    patched with a self-loop at load time and recorded in
    ``self_loop_nodes``).  Instances are immutable after construction and
    safe for shared concurrent reads.
    """

    n: int
    m: int
    edges: tuple[tuple[int, int], ...]
    M: np.ndarray
    A: np.ndarray
    attr_names: tuple[str, ...]
    self_loop_nodes: tuple[int, ...] = ()

    def __post_init__(self):
        self.M.flags.writeable = False
        self.A.flags.writeable = False

    def attr_index(self, name: str) -> int:
        try:
            return self.attr_names.index(name)
        except ValueError:
            raise ValidationError(f"network has no attribute named {name!r}") from None


@dataclass(frozen=True)
class NormalizedViews:
    """The two probability views of a network.

    ``mbar[j, i]`` is the probability of stepping from node ``i`` to node
    ``j`` along an edge (each column sums to 1).  ``abar[k, i]`` is the
    l1-normalized share node ``i`` holds of attribute ``k`` (each row sums
    to 1 unless the attribute is all-zero, in which case the row stays
    zero and its index appears in ``zero_attr_rows``).
    """

    mbar: np.ndarray
    abar: np.ndarray
    zero_attr_rows: tuple[int, ...] = ()

    def __post_init__(self):
        self.mbar.flags.writeable = False
        self.abar.flags.writeable = False

    @property
    def n(self) -> int:
        return self.mbar.shape[0]

    @property
    def m(self) -> int:
        return self.abar.shape[0]


def _read_rows(path: Path) -> list[tuple[int, list[str]]]:
    """Read a CSV, returning (1-based line number, fields) per data row."""
    rows = []
    with open(path, newline="") as fh:
        for ln, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not f.strip() for f in row):
                continue
            rows.append((ln, [f.strip() for f in row]))
    if not rows:
        raise ValidationError(f"{path}: file is empty")
    return rows


def load_network(edge_file, attr_file) -> RoadNetwork:
    """Load a road network from an edge CSV and an attribute CSV.

    The edge file has header ``src,dst`` and one directed edge per line.
    The attribute file has header ``node_id,<attr_1>,...,<attr_m>`` and one
    row per node; row order is irrelevant but ids must cover ``0..n-1``
    exactly.  Nodes left with out-degree 0 receive a self-loop, reported
    via a warning and ``RoadNetwork.self_loop_nodes``.

    Raises :class:`ValidationError` (naming the offending line) for a
    missing node row, a negative attribute, a dangling edge endpoint, a
    duplicate node id, or a duplicate edge.
    """
    edge_file = Path(edge_file)
    attr_file = Path(attr_file)

    attr_rows = _read_rows(attr_file)
    header_ln, header = attr_rows[0]
    if not header or header[0] != "node_id":
        raise ValidationError(
            f"{attr_file}:{header_ln}: attribute header must start with 'node_id'"
        )
    attr_names = tuple(header[1:])
    m = len(attr_names)
    if m < 1:
        raise ValidationError(f"{attr_file}:{header_ln}: no attribute columns declared")

    n = len(attr_rows) - 1
    seen_line: dict[int, int] = {}
    A = np.zeros((n, m), dtype=np.float64)
    for ln, row in attr_rows[1:]:
        if len(row) != m + 1:
            raise ValidationError(
                f"{attr_file}:{ln}: expected {m + 1} fields, got {len(row)}"
            )
        try:
            node = int(row[0])
        except ValueError:
            raise ValidationError(f"{attr_file}:{ln}: bad node id {row[0]!r}") from None
        if node in seen_line:
            raise ValidationError(
                f"{attr_file}:{ln}: duplicate node id {node} (first at line {seen_line[node]})"
            )
        if not 0 <= node < n:
            missing = sorted(set(range(n)) - set(seen_line))[0]
            raise ValidationError(
                f"{attr_file}:{ln}: node id {node} outside 0..{n - 1}; "
                f"missing node row for id {missing}"
            )
        seen_line[node] = ln
        try:
            values = [float(v) for v in row[1:]]
        except ValueError:
            raise ValidationError(f"{attr_file}:{ln}: non-numeric attribute value") from None
        for k, v in enumerate(values):
            if v < 0:
                raise ValidationError(
                    f"{attr_file}:{ln}: negative attribute {attr_names[k]}={v} for node {node}"
                )
        A[node] = values

    if len(seen_line) != n:
        missing = sorted(set(range(n)) - set(seen_line))[0]
        raise ValidationError(f"{attr_file}: missing node row for id {missing}")
    zero_rows = np.flatnonzero(~(A > 0).any(axis=1))
    if zero_rows.size:
        raise ValidationError(
            f"{attr_file}:{seen_line[int(zero_rows[0])]}: node {int(zero_rows[0])} "
            "has no positive attribute (every node needs at least one)"
        )

    edge_rows = _read_rows(edge_file)
    e_ln, e_header = edge_rows[0]
    if e_header[:2] != ["src", "dst"]:
        raise ValidationError(f"{edge_file}:{e_ln}: edge header must be 'src,dst'")

    M = np.zeros((n, n), dtype=np.float64)
    edges: list[tuple[int, int]] = []
    seen_edges: dict[tuple[int, int], int] = {}
    for ln, row in edge_rows[1:]:
        if len(row) != 2:
            raise ValidationError(f"{edge_file}:{ln}: expected 'src,dst'")
        try:
            src, dst = int(row[0]), int(row[1])
        except ValueError:
            raise ValidationError(f"{edge_file}:{ln}: non-integer endpoint") from None
        if not (0 <= src < n and 0 <= dst < n):
            raise ValidationError(
                f"{edge_file}:{ln}: dangling edge endpoint ({src},{dst}) outside 0..{n - 1}"
            )
        if (src, dst) in seen_edges:
            raise ValidationError(
                f"{edge_file}:{ln}: duplicate edge {src}->{dst} "
                f"(first at line {seen_edges[(src, dst)]})"
            )
        seen_edges[(src, dst)] = ln
        edges.append((src, dst))
        M[src, dst] = 1.0

    sinks = np.flatnonzero(M.sum(axis=1) == 0)
    for i in sinks:
        M[i, i] = 1.0
        edges.append((int(i), int(i)))
    if sinks.size:
        warnings.warn(
            f"added self-loops to {sinks.size} zero-out-degree node(s): "
            f"{[int(i) for i in sinks]}",
            stacklevel=2,
        )

    return RoadNetwork(
        n=n,
        m=m,
        edges=tuple(edges),
        M=M,
        A=A,
        attr_names=attr_names,
        self_loop_nodes=tuple(int(i) for i in sinks),
    )


def save_network(net: RoadNetwork, out_dir) -> None:
    """Write ``edges.csv`` and ``attributes.csv`` under ``out_dir``.

    Attribute values are written with full float precision so that
    load -> save -> load is an identity on (edges, A).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "edges.csv", "w", newline="") as fh:
        fh.write("src,dst\n")
        for src, dst in net.edges:
            fh.write(f"{src},{dst}\n")
    with open(out_dir / "attributes.csv", "w", newline="") as fh:
        fh.write("node_id," + ",".join(net.attr_names) + "\n")
        for i in range(net.n):
            fh.write(str(i) + "," + ",".join(repr(float(v)) for v in net.A[i]) + "\n")


def load_network_dir(net_dir) -> RoadNetwork:
    """Load a network from a directory written by :func:`save_network`."""
    net_dir = Path(net_dir)
    return load_network(net_dir / "edges.csv", net_dir / "attributes.csv")


def normalize_adjacency(net: RoadNetwork) -> np.ndarray:
    """Column-stochastic transition matrix over edges.

    Column ``i`` of the result is the out-edge distribution of node ``i``:
    ``mbar[j, i] = M[i, j] / out_degree(i)``.
    """
    outdeg = net.M.sum(axis=1)
    if (outdeg == 0).any():
        bad = int(np.flatnonzero(outdeg == 0)[0])
        raise ValidationError(f"node {bad} has out-degree 0; load_network should prevent this")
    return net.M.T / outdeg


def normalize_attributes(net: RoadNetwork) -> tuple[np.ndarray, tuple[int, ...]]:
    """Row-normalize the transposed attribute matrix with the l1 norm.

    Returns ``(abar, zero_rows)`` where ``abar[k]`` sums to 1 for every
    attribute with positive total mass; all-zero attributes keep an
    all-zero row, are reported via a warning, and are listed in
    ``zero_rows``.  Normalizing removes the bias a large-valued attribute
    would otherwise exert on sampling.
    """
    if (net.A < 0).any():
        raise ValidationError("attribute matrix has negative entries")
    totals = net.A.sum(axis=0)
    zero = np.flatnonzero(totals == 0)
    safe = np.where(totals == 0, 1.0, totals)
    abar = (net.A / safe).T
    if zero.size:
        names = [net.attr_names[int(k)] for k in zero]
        warnings.warn(f"attribute(s) {names} are all-zero; excluded from sampling", stacklevel=2)
    return abar, tuple(int(k) for k in zero)


def normalized_views(net: RoadNetwork) -> NormalizedViews:
    """Build both probability views of a network in one call."""
    abar, zero_rows = normalize_attributes(net)
    return NormalizedViews(mbar=normalize_adjacency(net), abar=abar, zero_attr_rows=zero_rows)
