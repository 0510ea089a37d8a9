"""Whole-algebra verification sweeps.

These back the CLI ``verify`` command and the heavier test suites.  Each
sweep is written as a generator that yields its failure descriptions in the
order it finds them; ``_capped`` turns it into the public ``check_*``
function, which returns the first ``_CAP`` of them as a list (empty meaning
the property held) and stops the sweep there.  The oracle sweeps compare
symbolic results against plain bit-matrix arithmetic from the relations
module.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Callable, Iterator, ParamSpec

from .algebra import AtomIndex, FrameElement, GroupRelationAlgebra
from .frames import Frame, try_image
from .groups import complex_product
from .relations import rel_compose, rel_converse

__all__ = [
    "check_partition",
    "check_oracle_converse",
    "check_oracle_composition",
    "check_involution",
    "check_associativity",
    "check_identity_laws",
    "check_boolean_laws",
    "check_fast_paths",
    "check_image_equations",
    "verify_algebra",
    "VERIFY_SWEEPS",
]

_CAP = 10  # each check_* returns at most this many failures; see _capped
P = ParamSpec("P")


def _capped(sweep: Callable[P, Iterator[str]]) -> Callable[P, list[str]]:
    """The sweep as a list of its first _CAP failures; the sweep stops there."""

    @functools.wraps(sweep)
    def capped(*args: P.args, **kwargs: P.kwargs) -> list[str]:
        return list(itertools.islice(sweep(*args, **kwargs), _CAP))

    return capped


@_capped
def check_partition(alg: GroupRelationAlgebra) -> Iterator[str]:
    """Atoms must tile the unit: pairwise disjoint, union = related rectangles."""
    seen = [0] * alg.base.size
    for a in alg.atoms():
        rel = alg.atom_relation(a)
        for i, row in enumerate(rel.rows):
            if seen[i] & row:
                yield f"atom {a.label()} overlaps an earlier atom in row {i}"
                break
            seen[i] |= row
    if tuple(seen) != alg.unit_relation().rows:
        yield "atom union differs from the unit relation"


@_capped
def check_oracle_converse(alg: GroupRelationAlgebra) -> Iterator[str]:
    """Each atom's materialized converse must equal its bit-matrix converse."""
    rels = {a: alg.atom_relation(a) for a in alg.atoms()}
    for a, rel in rels.items():
        if rels[alg.converse_atom(a)] != rel_converse(rel):
            yield f"converse of {a.label()} disagrees with the oracle"


@_capped
def check_oracle_composition(alg: GroupRelationAlgebra) -> Iterator[str]:
    """Materialized compose_atoms must equal bit-matrix composition, all pairs."""
    rels = {a: alg.atom_relation(a) for a in alg.atoms()}
    union_cache: dict[frozenset[AtomIndex], tuple[int, ...]] = {}
    for a in alg.atoms():
        for b in alg.atoms():
            expected = rel_compose(rels[a], rels[b])
            got = alg.compose_atoms(a, b)
            rows = union_cache.get(got.atoms)
            if rows is None:
                rows = union_cache[got.atoms] = alg.materialize(got).rows
            if rows != expected.rows:
                yield f"{a.label()};{b.label()} disagrees with the oracle"


@_capped
def check_involution(alg: GroupRelationAlgebra) -> Iterator[str]:
    """conv(conv(a)) = a and conv(a;b) = conv(b);conv(a)."""
    for a in alg.atoms():
        if alg.converse_atom(alg.converse_atom(a)) != a:
            yield f"converse of {a.label()} is not involutive"
    conv = {a: alg.converse_atom(a) for a in alg.atoms()}
    for a in alg.atoms():
        for b in alg.atoms():
            left = alg.converse(alg.compose_atoms(a, b))
            right = alg.compose_atoms(conv[b], conv[a])
            if left != right:
                yield f"second involution law fails at {a.label()},{b.label()}"


@_capped
def check_associativity(alg: GroupRelationAlgebra, cap: int = 30) -> Iterator[str]:
    """(a;b);c = a;(b;c) over atom triples.

    Exhaustive up to ``cap`` atoms; beyond that only the first ``cap`` atoms
    in index order are swept (deterministic either way).
    """
    atoms = alg.atoms()[:cap]
    for a in atoms:
        for b in atoms:
            ab = alg.compose_atoms(a, b).atoms
            for c in atoms:
                left: set[AtomIndex] = set()
                for t in ab:
                    left |= alg.compose_atoms(t, c).atoms
                right: set[AtomIndex] = set()
                for t in alg.compose_atoms(b, c).atoms:
                    right |= alg.compose_atoms(a, t).atoms
                if left != right:
                    yield f"associativity fails at {a.label()},{b.label()},{c.label()}"


def _sample_elements(alg: GroupRelationAlgebra, count: int, seed: int) -> list[FrameElement]:
    rng = random.Random(seed)
    atoms = alg.atoms()
    out = []
    for _ in range(count):
        k = rng.randint(0, len(atoms))
        out.append(alg.element(rng.sample(atoms, k)))
    return out


@_capped
def check_identity_laws(
    alg: GroupRelationAlgebra, count: int = 25, seed: int = 11
) -> Iterator[str]:
    ident = alg.identity_element()
    for e in [alg.unit(), alg.zero(), *_sample_elements(alg, count, seed)]:
        if alg.compose(ident, e) != e or alg.compose(e, ident) != e:
            yield f"identity law fails on {e!r}"


@_capped
def check_boolean_laws(
    alg: GroupRelationAlgebra, count: int = 100, seed: int = 7
) -> Iterator[str]:
    sample = _sample_elements(alg, count, seed)
    unit, zero = alg.unit(), alg.zero()
    for i, e in enumerate(sample):
        f = sample[(i + 1) % len(sample)]
        g = sample[(i + 2) % len(sample)]
        checks = [
            (e.complement().complement() == e, "double complement"),
            ((e | f).complement() == e.complement() & f.complement(), "de Morgan (union)"),
            ((e & f).complement() == e.complement() | f.complement(), "de Morgan (meet)"),
            (e | e.complement() == unit, "join with complement"),
            (e & e.complement() == zero, "meet with complement"),
            ((e | f) | g == e | (f | g), "join associativity"),
            (e & (f | g) == (e & f) | (e & g), "distributivity"),
        ]
        for ok, name in checks:
            if not ok:
                yield f"{name} fails on sample {i}"


@_capped
def check_fast_paths(alg: GroupRelationAlgebra) -> Iterator[str]:
    """fast_compose_subidentity agrees with compose_atoms wherever it applies."""
    for a in alg.atoms():
        for b in alg.atoms():
            if a.y != b.x:
                continue
            if a.x == a.y or b.x == b.y or b.y == a.x:
                if alg.fast_compose_subidentity(a, b) != alg.compose_atoms(a, b):
                    yield f"fast path differs at {a.label()};{b.label()}"


@_capped
def check_image_equations(frame: Frame) -> Iterator[str]:
    """The three Image Theorem equations, for every related chain (x,y),(y,z)."""
    records = frame.records
    for block in frame.blocks:
        for x, y, z in itertools.product(block, repeat=3):
            rxy, ryz, rxz = records[(x, y)], records[(y, z)], records[(x, z)]
            hh = complex_product(frame.groups[x], rxy.h.subgroup, rxz.h.subgroup)
            kh = complex_product(frame.groups[y], rxy.k.subgroup, ryz.h.subgroup)
            kk = complex_product(frame.groups[z], rxz.k.subgroup, ryz.k.subgroup)
            spot = f"({x},{y},{z})"
            if try_image(rxy, hh) != kh:
                yield f"first image equation fails at {spot}"
            if try_image(ryz, kh) != kk:
                yield f"second image equation fails at {spot}"
            if try_image(rxz, hh) != kk:
                yield f"third image equation fails at {spot}"


VERIFY_SWEEPS: list[tuple[str, Callable[[GroupRelationAlgebra], list[str]]]] = [
    ("partition", check_partition),
    ("converse-oracle", check_oracle_converse),
    ("composition-oracle", check_oracle_composition),
    ("involution", check_involution),
    ("associativity", check_associativity),
    ("identity-laws", check_identity_laws),
    ("boolean-laws", check_boolean_laws),
    ("fast-paths", check_fast_paths),
    ("image-equations", lambda alg: check_image_equations(alg.frame)),
]


def verify_algebra(alg: GroupRelationAlgebra) -> list[tuple[str, list[str]]]:
    """Run every sweep; returns (name, failures) pairs in a fixed order."""
    return [(name, sweep(alg)) for name, sweep in VERIFY_SWEEPS]
