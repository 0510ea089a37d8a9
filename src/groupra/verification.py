"""Whole-algebra verification sweeps.

These back the CLI ``verify`` command and the heavier test suites: every
sweep returns a list of failure descriptions (empty meaning the property
held).  The oracle sweeps compare symbolic results against plain bit-matrix
arithmetic from the relations module.
"""

from __future__ import annotations

import random
from typing import Callable

from .algebra import AtomIndex, FrameElement, GroupRelationAlgebra
from .frames import Frame, try_image
from .groups import complex_product, elements
from .relations import ConcreteRelation, rel_compose, rel_converse

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

_CAP = 10  # stop collecting failures past this many


def check_partition(alg: GroupRelationAlgebra) -> list[str]:
    """Atoms must tile the unit: pairwise disjoint, union = related rectangles."""
    failures = []
    seen = [0] * alg.base.size
    for a in alg.atoms():
        rel = alg.atom_relation(a)
        for i, row in enumerate(rel.rows):
            if seen[i] & row:
                failures.append(f"atom {a.label()} overlaps an earlier atom in row {i}")
                break
            seen[i] |= row
        if len(failures) >= _CAP:
            return failures
    unit = alg.unit_relation()
    if tuple(seen) != unit.rows:
        failures.append("atom union differs from the unit relation")
    return failures


def check_oracle_converse(alg: GroupRelationAlgebra) -> list[str]:
    failures = []
    for a in alg.atoms():
        symbolic = alg.atom_relation(alg.converse_atom(a))
        concrete = rel_converse(alg.atom_relation(a))
        if symbolic != concrete:
            failures.append(f"converse of {a.label()} disagrees with the oracle")
            if len(failures) >= _CAP:
                break
    return failures


def check_oracle_composition(alg: GroupRelationAlgebra) -> list[str]:
    """Materialized compose_atoms must equal bit-matrix composition, all pairs."""
    failures = []
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
                failures.append(f"{a.label()};{b.label()} disagrees with the oracle")
                if len(failures) >= _CAP:
                    return failures
    return failures


def check_involution(alg: GroupRelationAlgebra) -> list[str]:
    """conv(conv(a)) = a and conv(a;b) = conv(b);conv(a)."""
    failures = []
    for a in alg.atoms():
        if alg.converse_atom(alg.converse_atom(a)) != a:
            failures.append(f"converse of {a.label()} is not involutive")
    for a in alg.atoms():
        ca = alg.element([alg.converse_atom(a)])
        for b in alg.atoms():
            left = alg.converse(alg.compose_atoms(a, b))
            right = alg.compose(alg.element([alg.converse_atom(b)]), ca)
            if left != right:
                failures.append(f"second involution law fails at {a.label()},{b.label()}")
                if len(failures) >= _CAP:
                    return failures
    return failures


def check_associativity(alg: GroupRelationAlgebra, cap: int = 30) -> list[str]:
    """(a;b);c = a;(b;c) over atom triples.

    Exhaustive up to ``cap`` atoms; beyond that only the first ``cap`` atoms
    in index order are swept (deterministic either way).
    """
    atoms = alg.atoms()[:cap]
    failures = []
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
                    failures.append(
                        f"associativity fails at {a.label()},{b.label()},{c.label()}"
                    )
                    if len(failures) >= _CAP:
                        return failures
    return failures


def _sample_elements(alg: GroupRelationAlgebra, count: int, seed: int) -> list[FrameElement]:
    rng = random.Random(seed)
    atoms = alg.atoms()
    out = []
    for _ in range(count):
        if not atoms:
            out.append(alg.zero())
            continue
        k = rng.randint(0, len(atoms))
        out.append(alg.element(rng.sample(atoms, k)))
    return out


def check_identity_laws(alg: GroupRelationAlgebra, count: int = 25, seed: int = 11) -> list[str]:
    ident = alg.identity_element()
    failures = []
    for e in [alg.unit(), alg.zero(), *_sample_elements(alg, count, seed)]:
        if alg.compose(ident, e) != e or alg.compose(e, ident) != e:
            failures.append(f"identity law fails on {e!r}")
            if len(failures) >= _CAP:
                break
    return failures


def check_boolean_laws(alg: GroupRelationAlgebra, count: int = 100, seed: int = 7) -> list[str]:
    failures = []
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
                failures.append(f"{name} fails on sample {i}")
        if len(failures) >= _CAP:
            break
    return failures


def check_fast_paths(alg: GroupRelationAlgebra) -> list[str]:
    """fast_compose_subidentity agrees with compose_atoms wherever it applies."""
    failures = []
    for a in alg.atoms():
        for b in alg.atoms():
            if a.y != b.x:
                continue
            if a.x == a.y or b.x == b.y or b.y == a.x:
                if alg.fast_compose_subidentity(a, b) != alg.compose_atoms(a, b):
                    failures.append(f"fast path differs at {a.label()};{b.label()}")
                    if len(failures) >= _CAP:
                        return failures
    return failures


def check_image_equations(frame: Frame) -> list[str]:
    """The three Image Theorem equations, for every related chain (x,y),(y,z)."""
    failures = []
    for block in frame.blocks:
        for x in block:
            for y in block:
                for z in block:
                    rxy = frame.resolve_iso(x, y)
                    ryz = frame.resolve_iso(y, z)
                    rxz = frame.resolve_iso(x, z)
                    gx, gy = frame.groups[x], frame.groups[y]
                    hh = complex_product(gx, rxy.h.subgroup, rxz.h.subgroup)
                    kh = complex_product(gy, rxy.k.subgroup, ryz.h.subgroup)
                    kk = complex_product(
                        frame.groups[z], rxz.k.subgroup, ryz.k.subgroup
                    )
                    spot = f"({x},{y},{z})"
                    if try_image(rxy, hh) != kh:
                        failures.append(f"first image equation fails at {spot}")
                    if try_image(ryz, kh) != kk:
                        failures.append(f"second image equation fails at {spot}")
                    if try_image(rxz, hh) != kk:
                        failures.append(f"third image equation fails at {spot}")
                    if len(failures) >= _CAP:
                        return failures
    return failures


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
