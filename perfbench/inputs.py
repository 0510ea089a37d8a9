"""Seeded benchmark inputs: group tables, frame specs and frame texts.

Everything here is computed by the benchmark itself from plain integer
tables, so the reference checker can read the same specs that the frame
texts were written from.  Nothing is imported from ``groupra``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import permutations
from math import gcd

Table = tuple[tuple[int, ...], ...]


# -- groups as plain tables (identity at index 0) ------------------------


def cyclic_table(n: int) -> Table:
    return tuple(tuple((a + b) % n for b in range(n)) for a in range(n))


def dihedral_table(n: int) -> Table:
    """D_n of order 2n: index i + n*j stands for r^i s^j."""

    def mul(a: int, b: int) -> int:
        i, j = a % n, a // n
        k, l = b % n, b // n
        return (i + (-k if j else k)) % n + n * ((j + l) % 2)

    return tuple(tuple(mul(a, b) for b in range(2 * n)) for a in range(2 * n))


def symmetric4_table() -> Table:
    """S4 on the permutations of 0..3 in lexicographic order, p*q = p after q."""
    perms = list(permutations(range(4)))
    index = {p: i for i, p in enumerate(perms)}
    return tuple(
        tuple(index[tuple(p[q[k]] for k in range(4))] for q in perms) for p in perms
    )


def v4_in_s4() -> tuple[int, ...]:
    perms = list(permutations(range(4)))
    klein = [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]
    return tuple(sorted(perms.index(p) for p in klein))


def rotations(n: int, step: int) -> tuple[int, ...]:
    """The subgroup <r^step> of D_n."""
    return tuple(range(0, n, step))


def canonical_cosets(table: Table, sub: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Left cosets of a normal subgroup: the subgroup first, then ascending
    by least element; each coset as a sorted tuple."""
    seen = set(sub)
    out = [tuple(sorted(sub))]
    for a in range(len(table)):
        if a in seen:
            continue
        coset = tuple(sorted(table[a][h] for h in sub))
        seen.update(coset)
        out.append(coset)
    return out


# -- frame specs ---------------------------------------------------------


@dataclass(frozen=True)
class CyclicSpec:
    """Cyclic groups Z_n glued by generator-matching maps Z_nx/<k> -> Z_ny/<k>.

    ``kappa`` holds the quotient size of each in-block pair x < y (declaration
    order).  ``twist`` maps a pair to a unit u: its map sends coset j to coset
    u*j mod kappa instead of j.
    """

    name: str
    orders: dict[str, int]
    blocks: tuple[tuple[str, ...], ...]
    kappa: dict[tuple[str, str], int]
    twist: dict[tuple[str, str], int] = field(default_factory=dict)


@dataclass(frozen=True)
class PowerSpec:
    """Copies of one table group, glued along a normal subgroup by the
    positional map between canonical coset lists."""

    name: str
    table: Table
    normal: tuple[int, ...]
    ids: tuple[str, ...]


def spec_text(spec: CyclicSpec | PowerSpec) -> str:
    """The frame file for a spec, in the documented plain-text format."""
    if isinstance(spec, PowerSpec):
        return _power_text(spec)
    lines = [f"group {x} cyclic {n}" for x, n in spec.orders.items()]
    lines += ["block " + " ".join(b) for b in spec.blocks]
    for (x, y), k in spec.kappa.items():
        u = spec.twist.get((x, y), 1)
        lines += [
            f"iso {x} {y}",
            "H " + " ".join(map(str, range(0, spec.orders[x], k))),
            "K " + " ".join(map(str, range(0, spec.orders[y], k))),
            "map " + " ".join(f"{j}:{u * j % k}" for j in range(k)),
            "end",
        ]
    return "\n".join(lines) + "\n"


def _power_text(spec: PowerSpec) -> str:
    n = len(spec.table)
    rows = [" ".join(map(str, row)) for row in spec.table]
    lines = []
    for x in spec.ids:
        lines.append(f"group {x} table {n}")
        lines += rows
    lines.append("block " + " ".join(spec.ids))
    reps = [c[0] for c in canonical_cosets(spec.table, spec.normal)]
    normal = " ".join(map(str, spec.normal))
    for i, x in enumerate(spec.ids):
        for y in spec.ids[i + 1 :]:
            lines += [
                f"iso {x} {y}",
                f"H {normal}",
                f"K {normal}",
                "map " + " ".join(f"{r}:{r}" for r in reps),
                "end",
            ]
    return "\n".join(lines) + "\n"


def uniform_cyclic(name: str, order: int, copies: int, kappa: int) -> CyclicSpec:
    ids = tuple(str(i) for i in range(copies))
    return CyclicSpec(
        name,
        {x: order for x in ids},
        (ids,),
        {(x, y): kappa for i, x in enumerate(ids) for y in ids[i + 1 :]},
    )


def z6z9() -> CyclicSpec:
    """The running example (same text as the repository's z6z9 frame)."""
    return CyclicSpec("z6z9", {"0": 6, "1": 9}, (("0", "1"),), {("0", "1"): 3})


def twoblock() -> CyclicSpec:
    """Two blocks: Z6/Z9 glued mod 3, and two copies of Z2 glued exactly."""
    return CyclicSpec(
        "twoblock",
        {"0": 6, "1": 9, "a": 2, "b": 2},
        (("0", "1"), ("a", "b")),
        {("0", "1"): 3, ("a", "b"): 2},
    )


def power(name: str, table: Table, normal: tuple[int, ...], copies: int) -> PowerSpec:
    return PowerSpec(name, table, normal, tuple(str(i) for i in range(copies)))


# -- the validate corpus --------------------------------------------------

# Divisors of 48, one per copy of Z48; the seed only permutes them, so every
# seed gives the same multiset of quotient sizes and the same amount of work.
Z48_DIVISORS = (48, 48, 48, 24, 16, 12, 12, 8, 6, 4, 3, 2)
# The twins' divisors, in this order whatever the seed: how far a check gets
# before it finds the fault depends on the order, so it is fixed.
TWIN_DIVISORS = (48, 48, 48, 24, 16, 12)


def z48_corpus(rng: random.Random) -> tuple[CyclicSpec, CyclicSpec, CyclicSpec]:
    """Z48^12 with kappa_xy = gcd(t_x, t_y), and two corrupted twins.

    The seed permutes the divisors of the full frame.  The twins are six
    copies with ``TWIN_DIVISORS``, the same for every seed.  Among the three
    t = 48 copies every kappa is 48, so
    twisting the map of the first two by u = 47 (a unit, not 1 mod 48)
    breaks the induced-map condition on that triple, and setting their
    kappa to 16 while the other two pairs stay at 48 breaks the gcd
    agreement on it.  Both twins therefore fail the frame check.
    """
    t = list(Z48_DIVISORS)
    rng.shuffle(t)
    ids = tuple(str(i) for i in range(len(t)))
    full = _gcd_spec("z48x12", ids, t)
    base = _gcd_spec("", ids[: len(TWIN_DIVISORS)], list(TWIN_DIVISORS))
    pair = (ids[0], ids[1])
    twisted = CyclicSpec("twin-twist", base.orders, base.blocks, base.kappa, {pair: 47})
    kappa = dict(base.kappa)
    kappa[pair] = 16
    stepped = CyclicSpec("twin-kappa", base.orders, base.blocks, kappa)
    return full, twisted, stepped


def _gcd_spec(name: str, ids: tuple[str, ...], t: list[int]) -> CyclicSpec:
    return CyclicSpec(
        name,
        {x: 48 for x in ids},
        (ids,),
        {
            (x, y): gcd(t[i], t[j])
            for i, x in enumerate(ids)
            for j, y in enumerate(ids)
            if i < j
        },
    )
