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
    :func:`alias_draw` also takes a stack of tables of one size, held as
    ``(rows, size)`` arrays."""

    prob: np.ndarray
    alias: np.ndarray

    def __post_init__(self):
        self.prob.flags.writeable = False
        self.alias.flags.writeable = False

    @property
    def size(self) -> int:
        return self.prob.shape[-1]


def build_alias(p) -> AliasTable:
    """Build an alias table for probability vector ``p``.

    ``p`` must be entrywise finite and >= 0 and sum to 1 within 1e-9.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValidationError("alias input must be a non-empty 1-d vector")
    if (p < 0).any():
        raise ValidationError(f"alias input has negative entry at {int(np.argmin(p))}")
    total = p.sum()
    if not abs(total - 1.0) <= _SUM_TOL:  # a nan or inf entry makes the total non-finite
        raise ValidationError(f"alias input sums to {total!r}, expected 1 within {_SUM_TOL}")

    # Vose's loop on Python floats: the same IEEE operations as float64
    # scalars, without numpy's per-element indexing cost
    n = p.size
    prob = [1.0] * n
    alias = list(range(n))
    scaled = (p * n).tolist()
    small = [i for i in range(n) if scaled[i] < 1.0]
    large = [i for i in range(n) if scaled[i] >= 1.0]
    while small and large:
        s = small.pop()
        g = large.pop()
        prob[s] = scaled[s]
        alias[s] = g
        scaled[g] = (scaled[g] + scaled[s]) - 1.0
        if scaled[g] < 1.0:
            small.append(g)
        else:
            large.append(g)
    # leftovers in either queue are numerically 1: they keep prob 1 and
    # alias themselves
    return AliasTable(prob=np.array(prob, dtype=np.float64),
                      alias=np.array(alias, dtype=np.int64))


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
