"""Reference answers for the benchmark, computed without ``groupra``.

Atoms are plain tuples ``(x, y, alpha)``, relations are frozensets of
global-id pairs, and group elements are indices into the spec's own table.

* Cyclic frames: ((x,y),a);((y,z),b) is every ((x,z),g) with
  g = a + b mod gcd(kappa_xy, kappa_yz), and the converse of ((x,y),a) is
  ((y,x), -a mod kappa_xy).
* Power frames: with canonical coset lists (singletons on a square pair,
  cosets of the glue subgroup otherwise), ((x,y),a);((y,z),b) is every
  ((x,z),w) whose coset lies inside C_a * C_b, and the converse of
  ((x,y),a) is the coset of C_a's inverse.
* Atom relations come straight from the definitions and are composed as
  plain Python sets.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Optional

from inputs import CyclicSpec, PowerSpec, canonical_cosets

Atom = tuple[str, str, int]
Pairs = frozenset[tuple[int, int]]


class Reference:
    """Reference computations for one frame spec."""

    def __init__(self, spec: CyclicSpec | PowerSpec):
        self.spec = spec
        if isinstance(spec, PowerSpec):
            self.ids = spec.ids
            self.order = {x: len(spec.table) for x in spec.ids}
            self.block = {x: 0 for x in spec.ids}
            n = len(spec.table)
            self.inverse = [next(b for b in range(n) if spec.table[a][b] == 0) for a in range(n)]
            singletons = [(e,) for e in range(n)]
            glued = canonical_cosets(spec.table, spec.normal)
            self._cosets = {True: singletons, False: glued}
            self._coset_of = {
                square: {e: i for i, c in enumerate(cs) for e in c}
                for square, cs in self._cosets.items()
            }
        else:
            self.ids = tuple(spec.orders)
            self.order = dict(spec.orders)
            self.block = {x: i for i, b in enumerate(spec.blocks) for x in b}
        self.offset: dict[str, int] = {}
        total = 0
        for x in self.ids:
            self.offset[x] = total
            total += self.order[x]
        self.size = total
        self._memo: dict[tuple, frozenset[Atom]] = {}

    # -- atoms -----------------------------------------------------------

    def related(self, x: str, y: str) -> bool:
        return self.block[x] == self.block[y]

    def kappa(self, x: str, y: str) -> int:
        if x == y:
            return self.order[x]
        if isinstance(self.spec, PowerSpec):
            return len(self._cosets[False])
        k = self.spec.kappa
        return k[(x, y)] if (x, y) in k else k[(y, x)]

    def atoms(self) -> list[Atom]:
        """All atoms, ordered by (x, y) in declaration order, then alpha."""
        return [
            (x, y, a)
            for x in self.ids
            for y in self.ids
            if self.related(x, y)
            for a in range(self.kappa(x, y))
        ]

    # -- symbolic operations ---------------------------------------------

    def converse(self, a: Atom) -> Atom:
        x, y, alpha = a
        if isinstance(self.spec, PowerSpec):
            cosets = self._cosets[x == y]
            inv = self.inverse[cosets[alpha][0]]
            return (y, x, self._coset_of[x == y][inv])
        self._untwisted()
        return (y, x, -alpha % self.kappa(x, y))

    def compose(self, a: Atom, b: Atom) -> frozenset[Atom]:
        x, y, alpha = a
        y2, z, beta = b
        if y != y2:
            return frozenset()
        if isinstance(self.spec, PowerSpec):
            return self._power_compose(x, y, z, alpha, beta)
        self._untwisted()
        g = gcd(self.kappa(x, y), self.kappa(y, z))
        key = (x, z, g, (alpha + beta) % g)
        hit = self._memo.get(key)
        if hit is None:
            hit = frozenset((x, z, c) for c in range(key[3], self.kappa(x, z), g))
            self._memo[key] = hit
        return hit

    def _power_compose(self, x: str, y: str, z: str, alpha: int, beta: int) -> frozenset[Atom]:
        key = (x, y, z, alpha, beta)
        hit = self._memo.get(key)
        if hit is None:
            table = self.spec.table
            left = self._cosets[x == y][alpha]
            right = self._cosets[y == z][beta]
            product = {table[p][q] for p in left for q in right}
            hit = frozenset(
                (x, z, w)
                for w, c in enumerate(self._cosets[x == z])
                if product.issuperset(c)
            )
            self._memo[key] = hit
        return hit

    def compose_elements(self, e1: Iterable[Atom], e2: Iterable[Atom]) -> frozenset[Atom]:
        out: set[Atom] = set()
        right = list(e2)
        for a in e1:
            for b in right:
                if a[1] == b[0]:
                    out |= self.compose(a, b)
        return frozenset(out)

    def _untwisted(self) -> None:
        if self.spec.twist:
            raise ValueError(f"{self.spec.name}: twisted frames have no reference algebra")

    # -- concrete relations ----------------------------------------------

    def atom_pairs(self, a: Atom) -> Pairs:
        """The atom's pairs of global ids, from the definition."""
        x, y, alpha = a
        ox, oy = self.offset[x], self.offset[y]
        if isinstance(self.spec, PowerSpec):
            table, inv = self.spec.table, self.inverse
            coset_of = self._coset_of[x == y]
            n = len(table)
            return frozenset(
                (ox + p, oy + q)
                for p in range(n)
                for q in range(n)
                if coset_of[table[inv[p]][q]] == alpha
            )
        self._untwisted()
        k = self.kappa(x, y)
        return frozenset(
            (ox + p, oy + q)
            for p in range(self.order[x])
            for q in range(self.order[y])
            if (q - p - alpha) % k == 0
        )

    def rows(self, pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
        """Pairs as bit-matrix rows: bit q of row p is set iff (p, q) is in."""
        out = [0] * self.size
        for p, q in pairs:
            out[p] |= 1 << q
        return tuple(out)


def pairs_compose(r: Pairs, s: Pairs) -> Pairs:
    after: dict[int, list[int]] = {}
    for b, c in s:
        after.setdefault(b, []).append(c)
    return frozenset((a, c) for a, b in r for c in after.get(b, ()))


def pairs_converse(r: Pairs) -> Pairs:
    return frozenset((b, a) for a, b in r)


def atom_diff(expected: frozenset[Atom], got: Iterable[tuple]) -> Optional[str]:
    """None when ``got`` is exactly ``expected``, else what differs."""
    got = frozenset(tuple(a) for a in got)
    if got == expected:
        return None
    missing = sorted(expected - got)
    extra = sorted(got - expected)
    return f"missing {missing[:3]} extra {extra[:3]}"
