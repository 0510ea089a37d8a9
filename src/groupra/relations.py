"""Concrete binary relations over a fixed base set 0..size-1.

This is the ground-truth side of the package: plain bit-matrix arithmetic,
deliberately independent of the coset/atom machinery so the two can check
each other.  Row a of a relation is the bitmask of all b with (a,b) in R.
"""

from __future__ import annotations

from functools import reduce
from operator import attrgetter, or_
from typing import Iterable, Sequence

from .groups import FiniteGroup, _store, _Value, iter_bits

__all__ = [
    "ConcreteRelation",
    "rel_compose",
    "rel_converse",
    "rel_union",
    "identity_on",
    "cayley_relation",
]


class ConcreteRelation(_Value):
    """A read-only relation on 0..size-1, compared and hashed by its rows.

    The constructor refuses a row count other than ``size`` first, then any
    row that is negative or has a bit at ``size`` or above.  It reads the
    second fault off the OR of all rows, one C-level pass.  The rows are
    stored as a tuple, whatever sequence they are given as.
    """

    size: int
    rows: tuple[int, ...]
    _compared = attrgetter("size", "rows")

    def __init__(self, size: int, rows: Sequence[int]) -> None:
        rows = tuple(rows)
        if len(rows) != size:
            raise ValueError(f"expected {size} rows, got {len(rows)}")
        if rows and reduce(or_, rows) >> size:
            raise ValueError("row mask reaches outside the base set")
        _store(self, "size", size)
        _store(self, "rows", rows)

    @classmethod
    def empty(cls, size: int) -> "ConcreteRelation":
        return cls(size, (0,) * size)

    @classmethod
    def from_pairs(cls, size: int, pairs: Iterable[tuple[int, int]]) -> "ConcreteRelation":
        rows = [0] * size
        for a, b in pairs:
            if not (0 <= a < size and 0 <= b < size):
                raise ValueError(f"pair ({a},{b}) outside base set 0..{size - 1}")
            rows[a] |= 1 << b
        return cls(size, tuple(rows))

    def pairs(self) -> list[tuple[int, int]]:
        """All (a, b) in the relation, lexicographically sorted."""
        return [(a, b) for a, row in enumerate(self.rows) for b in iter_bits(row)]

    def count(self) -> int:
        return sum(r.bit_count() for r in self.rows)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        a, b = pair
        return 0 <= a < self.size and 0 <= b < self.size and bool(self.rows[a] >> b & 1)

    def __repr__(self) -> str:
        return f"ConcreteRelation(size={self.size}, pairs={self.count()})"


def _same_size(r: ConcreteRelation, s: ConcreteRelation) -> int:
    if r.size != s.size:
        raise ValueError(f"base set sizes differ: {r.size} vs {s.size}")
    return r.size


def rel_compose(r: ConcreteRelation, s: ConcreteRelation) -> ConcreteRelation:
    """Relational composition r|s = {(a,c) : some b with aRb and bSc}."""
    n = _same_size(r, s)
    rows = []
    for row in r.rows:
        acc = 0
        for b in iter_bits(row):
            acc |= s.rows[b]
        rows.append(acc)
    return ConcreteRelation(n, tuple(rows))


def rel_converse(r: ConcreteRelation) -> ConcreteRelation:
    rows = [0] * r.size
    for a, row in enumerate(r.rows):
        if row:
            bit = 1 << a
            while row:
                low = row & -row
                rows[low.bit_length() - 1] |= bit
                row ^= low
    return ConcreteRelation(r.size, tuple(rows))


def rel_union(r: ConcreteRelation, s: ConcreteRelation) -> ConcreteRelation:
    n = _same_size(r, s)
    return ConcreteRelation(n, tuple(a | b for a, b in zip(r.rows, s.rows)))


def identity_on(size: int) -> ConcreteRelation:
    return ConcreteRelation(size, tuple(1 << a for a in range(size)))


def cayley_relation(
    g: FiniteGroup,
    x: int,
    offset: int = 0,
    size: int | None = None,
) -> ConcreteRelation:
    """The Cayley relation of x: all pairs (a, a*x), embedded at an offset.

    With the default offset this is the right-translation bijection on the
    group's own elements.
    """
    if size is None:
        size = offset + g.order
    return ConcreteRelation.from_pairs(
        size, ((offset + a, offset + g.mul(a, x)) for a in g.elements())
    )
