"""Alias tables for O(1) draws from fixed discrete distributions (Vose's
construction)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import ValidationError

_SUM_TOL = 1e-9


@dataclass(frozen=True)
class AliasTable:
    """Probability table ``prob`` and alias indices ``alias`` for one
    distribution; reconstructable to the input within 1e-12 per entry.
    :func:`build_alias` also builds, and :func:`alias_draw` also takes, a
    stack of tables of one size, held as ``(rows, size)`` arrays."""

    prob: np.ndarray
    alias: np.ndarray

    def __post_init__(self):
        self.prob.flags.writeable = False
        self.alias.flags.writeable = False

    @property
    def size(self) -> int:
        return self.prob.shape[-1]


def build_alias(p) -> AliasTable:
    """Build an alias table for probability vector ``p``, or one table per
    row of a ``(rows, size)`` stack ``p``, held as ``(rows, size)`` arrays.

    Each row must be entrywise finite and >= 0 and sum to 1 within 1e-9; an
    error names the first row that is not.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim not in (1, 2) or p.shape[-1] == 0:
        raise ValidationError("alias input must be a non-empty 1-d vector or (rows, size) stack")
    stack = p.reshape(-1, p.shape[-1])

    def name(r: int) -> str:
        return "alias input" if p.ndim == 1 else f"alias input row {r}"

    negative = np.flatnonzero((stack < 0).any(axis=1))
    if negative.size:
        r = int(negative[0])
        raise ValidationError(f"{name(r)} has negative entry at {int(np.argmin(stack[r]))}")
    total = stack.sum(axis=1)
    off = np.flatnonzero(~(np.abs(total - 1.0) <= _SUM_TOL))  # a nan or inf entry is off too
    if off.size:
        r = int(off[0])
        raise ValidationError(f"{name(r)} sums to {total[r]!r}, expected 1 within {_SUM_TOL}")

    # Vose's loop, run on every row at once: a row pops the top of its small
    # and large stacks, and its float operations and stack order are those
    # of the one-row loop.  A row's stacks share one row of ``queue``: the
    # small entries from the left (top at small - 1) and the large ones
    # from the right (top at size - large); a pop frees the slot its push
    # takes, so they never meet
    rows, size = stack.shape
    scaled = stack * size
    prob = np.ones_like(scaled)
    alias = np.tile(np.arange(size, dtype=np.int64), (rows, 1))
    slot = np.arange(size)
    below = scaled < 1.0
    # both stacks in ascending index order from bottom to top
    queue = np.argsort(np.where(below, slot, 2 * size - slot), axis=1)
    small = below.sum(axis=1)
    large = size - small
    live = np.flatnonzero((small > 0) & (large > 0))
    while live.size:
        top_s, top_g = small[live] - 1, size - large[live]
        s, g = queue[live, top_s], queue[live, top_g]
        prob[live, s] = scaled[live, s]
        alias[live, s] = g
        scaled[live, g] = grown = (scaled[live, g] + scaled[live, s]) - 1.0
        to_small = grown < 1.0
        queue[live, np.where(to_small, top_s, top_g)] = g
        small[live] += to_small - 1
        large[live] -= to_small
        live = live[(small[live] > 0) & (large[live] > 0)]
    # leftovers in either stack are numerically 1: they keep prob 1 and
    # alias themselves
    return AliasTable(prob=prob.reshape(p.shape), alias=alias.reshape(p.shape))


def alias_draw(table: AliasTable, rng: np.random.Generator):
    """Draw one outcome from each table in ``table``.

    A table from :func:`build_alias` (``prob`` of shape ``(size,)``) gives
    one index.  A stack of tables, ``prob`` and ``alias`` of shape
    ``(rows, size)``, gives an int64 array of ``rows`` indices, index ``r``
    drawn from table ``r``.  Each draw uses one integer and one uniform
    variate, taken as one vector call each.
    """
    prob = table.prob.reshape(-1, table.size)
    rows = np.arange(prob.shape[0])
    slot = rng.integers(table.size, size=rows.size)
    u = rng.random(rows.size)
    return alias_lookup(prob, table.alias.reshape(prob.shape), rows, slot, u).reshape(
        table.prob.shape[:-1])[()]


def alias_lookup(prob: np.ndarray, alias: np.ndarray, rows: np.ndarray, slot: np.ndarray,
                 u: np.ndarray) -> np.ndarray:
    """The outcomes of draws from the stacked tables ``prob``, ``alias`` (each
    ``(tables, size)``): draw ``r`` reads table ``rows[r]`` at slot
    ``slot[r]`` and keeps the slot where its uniform ``u[r]`` falls below
    the slot's probability, else takes the slot's alias."""
    return np.where(u < prob[rows, slot], slot, alias[rows, slot])


def reconstruct(table: AliasTable) -> np.ndarray:
    """Invert a table back to its probability vector.

    Slot ``i`` contributes ``prob[i]`` to outcome ``i`` and the remaining
    ``1 - prob[i]`` to outcome ``alias[i]``; dividing by the slot count
    recovers the distribution exactly up to float rounding.
    """
    out = table.prob.copy()
    np.add.at(out, table.alias, 1.0 - table.prob)
    return out / table.size
