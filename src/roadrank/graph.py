"""Road-network data model: file ingestion, validation, the network's
adjacency (its edge arrays with an out-CSR and an in-CSR, built once), and
the row-normalized attribute view that drives bridge sampling downstream."""

from __future__ import annotations

import csv
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np


class ValidationError(ValueError):
    """An input file or data structure violates a documented contract."""


@dataclass(frozen=True)
class RoadNetwork:
    """Directed, unweighted, attributed graph over road segments.

    Nodes are dense integer ids ``0..n-1``.  Edge ``e`` runs from segment
    ``src[e]`` to segment ``dst[e]``, in file order; ``out_ptr``/``out_idx``
    index the same edges by source (CSR sorted by (src, dst)), so the
    out-neighbours of ``i`` are ``out_idx[out_ptr[i]:out_ptr[i + 1]]``.
    ``in_ptr``/``in_src`` index the edges that are not self-loops by
    destination (CSR sorted by (dst, src)), so the in-neighbours of ``i``
    are ``in_src[in_ptr[i]:in_ptr[i + 1]]``.
    ``A`` holds one non-negative attribute row per node; every row has at
    least one strictly positive entry, and every node has out-degree >= 1
    (sinks are patched with a self-loop at load time and recorded in
    ``self_loop_nodes``).  Instances are immutable after construction and
    safe for shared concurrent reads.
    """

    n: int
    m: int
    src: np.ndarray
    dst: np.ndarray
    A: np.ndarray
    attr_names: tuple[str, ...]
    self_loop_nodes: tuple[int, ...] = ()
    out_ptr: np.ndarray = field(init=False, repr=False, compare=False)
    out_idx: np.ndarray = field(init=False, repr=False, compare=False)
    in_ptr: np.ndarray = field(init=False, repr=False, compare=False)
    in_src: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        outdeg = np.bincount(self.src, minlength=self.n)
        if (outdeg == 0).any():
            raise ValidationError(f"node {int(np.argmin(outdeg))} has out-degree 0; "
                                  "patch sinks with a self-loop as load_network does")
        object.__setattr__(self, "out_ptr", np.concatenate(([0], np.cumsum(outdeg))))
        object.__setattr__(self, "out_idx", self.dst[np.lexsort((self.dst, self.src))])
        keep = np.flatnonzero(self.src != self.dst)
        indeg = np.bincount(self.dst[keep], minlength=self.n)
        object.__setattr__(self, "in_ptr", np.concatenate(([0], np.cumsum(indeg))))
        object.__setattr__(self, "in_src",
                           self.src[keep[np.lexsort((self.src[keep], self.dst[keep]))]])
        for array in (self.src, self.dst, self.out_ptr, self.out_idx, self.in_ptr,
                      self.in_src, self.A):
            array.flags.writeable = False

    def attr_index(self, name: str) -> int:
        try:
            return self.attr_names.index(name)
        except ValueError:
            raise ValidationError(f"network has no attribute named {name!r}") from None


@contextmanager
def open_text(path: Path, newline: str | None = None) -> Iterator[TextIO]:
    """Open ``path`` to read as UTF-8 text; a byte that is not UTF-8 raises
    a :class:`ValidationError` naming the file."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None


@contextmanager
def open_output(path: Path) -> Iterator[TextIO]:
    """Open ``path`` to write UTF-8 text with LF line ends, as :func:`open_text`
    reads it.  A write or the closing flush that fails (a full disk, say)
    raises an ``OSError`` naming the file, which plain file errors do not."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        if exc.filename is not None:
            raise
        raise OSError(exc.errno, exc.strerror, str(path)) from None


# lines the vectorized writers (samples.txt, ratings.csv) format at once: a
# few hundred kB of text, however large the network; on 30x30, whole 64-row
# rating blocks raised rank's peak RSS by 4.4 MB
WRITE_LINES = 1 << 12


def ascii_rows(texts: list[str]) -> np.ndarray:
    """``texts`` as uint8 rows, NUL-padded on the right to the longest."""
    packed = np.array(texts, dtype=bytes)
    return packed.view(np.uint8).reshape(len(texts), packed.itemsize)


def write_rows(fh: TextIO, rows: np.ndarray) -> None:
    """Write the ASCII bytes of uint8 array ``rows`` in order, less their NULs."""
    fh.write(rows.tobytes().translate(None, b"\0").decode("ascii"))


def read_rows(path: Path) -> Iterator[tuple[int, list[str]]]:
    """Stream a CSV as (1-based line number, fields) per data row, each row
    numbered by the line it starts on, so a quoted field that spans lines
    shifts no later row's number."""
    empty = True
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        ln = 1
        for row in reader:
            row = [f.strip() for f in row]
            if any(row):
                empty = False
                yield ln, row
            ln = reader.line_num + 1
    if empty:
        raise ValidationError(f"{path}: file is empty")


# the bytes of a canonical file: printable ASCII other than the space and the
# double quote, and the \n line end
_CANONICAL_BYTES = bytes(range(0x21, 0x7f)).replace(b'"', b"") + b"\n"


def _canonical_table(path: Path) -> tuple[list[str], list[str], np.ndarray] | None:
    """The header's fields, the data lines and their values as a float64
    array, parsed whole, for a file in the canonical form that
    :func:`save_network` and :func:`write_node_table` write: printable ASCII
    other than the space and the double quote, ``\\n`` line ends, no blank
    line, and the header's field count on every line.  None for any other
    file.

    numpy's text reader parses each value with ``PyOS_string_to_double``,
    as ``float`` does a field with no space or underscore, so a value gets
    ``float``'s bits; a field that ``float`` takes and it does not
    (``1_0``, say) makes the file not canonical.
    """
    data = path.read_bytes()
    if data.translate(None, _CANONICAL_BYTES):
        return None
    header, *lines = data.decode("ascii").split("\n")
    if lines and not lines[-1]:
        lines.pop()  # the final line end
    if not lines or "" in lines:
        return None
    fields = header.split(",")
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape[1] != len(fields):
        return None
    return fields, lines, values


def _node_table_arrays(path: Path, n: int | None
                       ) -> tuple[tuple[str, ...], np.ndarray, dict[int, int]] | None:
    """:func:`read_node_table` on a canonical file that passes every check,
    its node ids digits only; None for any other file."""
    table = _canonical_table(path)
    if table is None:
        return None
    header, lines, values = table
    n = len(lines) if n is None else n
    if (header[0] != "node_id" or len(header) < 2 or len(lines) != n
            or not all(line.partition(",")[0].isdigit() for line in lines)):
        return None
    # digit strings parse exactly below 2**53, and a longer one reads >= n
    ids, values = values[:, 0], values[:, 1:]
    if not ((ids < n).all() and ((0 <= values) & (values < math.inf)).all()):
        return None
    node = ids.astype(np.int64)
    if np.bincount(node, minlength=n).max() > 1:
        return None
    A = np.empty((n, values.shape[1]))
    A[node] = values
    return tuple(header[1:]), A, dict(zip(node.tolist(), range(2, n + 2)))


def read_node_table(path, what: str, n: int | None = None
                    ) -> tuple[tuple[str, ...], np.ndarray, dict[int, int]]:
    """Read a node table: header ``node_id,<name_1>,...,<name_k>``, then one
    row of k finite values >= 0 per node, in any order, whose ids cover
    ``0..n-1`` exactly (``n`` defaults to the row count).  Returns the names,
    the (n, k) values and each node's line; ``what`` names a value in errors.

    A canonical file (:func:`_canonical_table`) is parsed whole; any other
    file, and a canonical one that fails a check, is read row by row, which
    names the first bad line.
    """
    path = Path(path)
    return _node_table_arrays(path, n) or _read_node_table_rows(path, what, n)


def _read_node_table_rows(path: Path, what: str, n: int | None
                          ) -> tuple[tuple[str, ...], np.ndarray, dict[int, int]]:
    """:func:`read_node_table` one row at a time, for any file it accepts."""
    (header_ln, header), *rows = read_rows(path)
    if header[0] != "node_id":
        raise ValidationError(f"{path}:{header_ln}: {what} header must start with 'node_id'")
    names = tuple(header[1:])
    if not names:
        raise ValidationError(f"{path}:{header_ln}: no {what} columns declared")
    if not rows:
        raise ValidationError(f"{path}: no node rows after the header")
    n = len(rows) if n is None else n
    line_of: dict[int, int] = {}
    values: list = [None] * n
    for ln, row in rows:
        if len(row) != len(header):
            raise ValidationError(f"{path}:{ln}: expected {len(header)} fields, got {len(row)}")
        try:
            node = int(row[0])
        except ValueError:
            raise ValidationError(f"{path}:{ln}: bad node id {row[0]!r}") from None
        if node in line_of:
            raise ValidationError(
                f"{path}:{ln}: duplicate node id {node} (first at line {line_of[node]})")
        if not 0 <= node < n:
            missing = min(set(range(n)) - line_of.keys(), default=None)
            raise ValidationError(f"{path}:{ln}: node id {node} outside 0..{n - 1}" + (
                "" if missing is None else f"; missing node row for node {missing}"))
        line_of[node] = ln
        try:
            values[node] = list(map(float, row[1:]))
        except ValueError:
            raise ValidationError(f"{path}:{ln}: non-numeric {what} value") from None
        for name, v in zip(names, values[node]):
            if not 0 <= v < math.inf:  # also false for nan
                raise ValidationError(f"{path}:{ln}: {'negative' if v < 0 else 'non-finite'} "
                                      f"{what} {name}={v} for node {node}")
    if len(line_of) < n:
        raise ValidationError(f"{path}: missing node row for node {values.index(None)}")
    return names, np.array(values, dtype=np.float64), line_of


def write_node_table(path, names, values) -> None:
    """Write the node table :func:`read_node_table` reads: row ``i`` holds
    ``values[i]`` at full float precision, so a read gives the values back
    exactly."""
    with open_output(path) as fh:
        fh.write(",".join(("node_id", *names)) + "\n")
        for i, row in enumerate(np.asarray(values, dtype=np.float64).tolist()):
            fh.write(str(i) + "," + ",".join(repr(v) for v in row) + "\n")


def load_network(edge_file, attr_file) -> RoadNetwork:
    """Load a road network from an edge CSV and an attribute CSV.

    The edge file has header ``src,dst`` and one directed edge per line.
    The attribute file is a node table (:func:`read_node_table`) with header
    ``node_id,<attr_1>,...,<attr_m>``.  Nodes left with out-degree 0
    receive a self-loop, reported via a warning and
    ``RoadNetwork.self_loop_nodes``.

    Raises :class:`ValidationError` (naming the offending line) for a
    malformed node table, a node with no positive attribute, a dangling
    edge endpoint, or a duplicate edge.  Canonical files
    (:func:`_canonical_table`) are parsed whole; any other file, and a
    canonical one that fails a check, is read row by row.
    """
    edge_file = Path(edge_file)
    attr_names, A, attr_line = read_node_table(attr_file, "attribute")
    n, m = A.shape

    zero_rows = np.flatnonzero(~(A > 0).any(axis=1))
    if zero_rows.size:
        raise ValidationError(
            f"{attr_file}:{attr_line[int(zero_rows[0])]}: node {int(zero_rows[0])} "
            "has no positive attribute (every node needs at least one)"
        )

    src, dst = _edge_arrays(edge_file, n) or _read_edge_rows(edge_file, n)
    loops = np.flatnonzero(np.bincount(src, minlength=n) == 0).tolist()
    if loops:
        warnings.warn(
            f"added self-loops to {len(loops)} zero-out-degree node(s): {loops}",
            stacklevel=2,
        )

    return RoadNetwork(
        n=n,
        m=m,
        src=np.concatenate((src, np.array(loops, dtype=np.int64))),
        dst=np.concatenate((dst, np.array(loops, dtype=np.int64))),
        A=A,
        attr_names=attr_names,
        self_loop_nodes=tuple(loops),
    )


def _edge_arrays(edge_file: Path, n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The edges' (src, dst) of a canonical edge file (:func:`_canonical_table`)
    whose header is ``src,dst``, whose endpoints are digits only, and that
    passes every check of :func:`_read_edge_rows`; None for any other file."""
    table = _canonical_table(edge_file)
    if table is None:
        return None
    header, lines, values = table
    if header != ["src", "dst"] or not "".join(lines).replace(",", "").isdigit():
        return None
    if not (values < n).all():  # a digit string >= 2**53 reads >= n too
        return None
    src, dst = values.astype(np.int64).T
    edge = np.sort(src * n + dst)  # np.unique would import numpy.ma on its first call
    if (edge[1:] == edge[:-1]).any():
        return None
    return src, dst


def _read_edge_rows(edge_file: Path, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The edges' (src, dst) of an edge file over nodes ``0..n-1``, read one
    row at a time, naming the first bad line."""
    edge_rows = read_rows(edge_file)
    e_ln, e_header = next(edge_rows)
    if e_header[:2] != ["src", "dst"]:
        raise ValidationError(f"{edge_file}:{e_ln}: edge header must be 'src,dst'")

    srcs: list[int] = []
    dsts: list[int] = []
    seen_edges: dict[tuple[int, int], int] = {}
    for ln, row in edge_rows:
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
        srcs.append(src)
        dsts.append(dst)
    return np.array(srcs, dtype=np.int64), np.array(dsts, dtype=np.int64)


def save_network(net: RoadNetwork, out_dir) -> None:
    """Write ``edges.csv`` and ``attributes.csv`` under ``out_dir``.

    Attribute values are written with full float precision so that
    load -> save -> load is an identity on (edges, A).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open_output(out_dir / "edges.csv") as fh:
        fh.write("src,dst\n")
        for s, d in zip(net.src.tolist(), net.dst.tolist()):
            fh.write(f"{s},{d}\n")
    write_node_table(out_dir / "attributes.csv", net.attr_names, net.A)


def load_network_dir(net_dir) -> RoadNetwork:
    """Load a network from a directory written by :func:`save_network`."""
    net_dir = Path(net_dir)
    return load_network(net_dir / "edges.csv", net_dir / "attributes.csv")


def flat_neighbours(frontier: np.ndarray, n: int, ptr: np.ndarray,
                    idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair each flat ``row * n + node`` index in ``frontier`` with every
    CSR neighbour ``idx[ptr[node]:ptr[node + 1]]`` of its node, in frontier
    order, then CSR order.  Returns each pair's position in ``frontier``,
    its CSR position and its neighbour's flat index."""
    base = frontier // n * n
    node = frontier - base
    start = ptr[node]
    count = ptr[node + 1] - start
    at = np.repeat(np.arange(frontier.size), count)
    pos = np.arange(at.size) + np.repeat(start - (np.cumsum(count) - count), count)
    return at, pos, np.repeat(base, count) + idx[pos]


def normalized_views(net: RoadNetwork) -> np.ndarray:
    """The attribute view ``abar``, read-only: ``abar[k, i]`` is the
    l1-normalized share node ``i`` holds of attribute ``k``.

    Each row sums to 1 unless the attribute is all-zero; such a row stays
    zero and is reported via a warning.  Normalizing removes the bias a
    large-valued attribute would otherwise exert on sampling.
    """
    if (net.A < 0).any():
        raise ValidationError("attribute matrix has negative entries")
    totals = net.A.sum(axis=0)
    zero = np.flatnonzero(totals == 0)
    abar = (net.A / np.where(totals == 0, 1.0, totals)).T
    if zero.size:
        names = [net.attr_names[int(k)] for k in zero]
        warnings.warn(f"attribute(s) {names} are all-zero; excluded from sampling", stacklevel=2)
    abar.flags.writeable = False
    return abar
