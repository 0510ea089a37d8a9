"""Self-test of the benchmark's reference checker.

    python3 perfbench/selftest.py

1. The reference's closed forms agree with its own atom relations composed
   as plain sets, on small cyclic and power frames (no groupra involved).
2. groupra's answers on the same frames pass the checker.
3. The checker flags an answer with one atom added or dropped, a bit-matrix
   row with one pair flipped, and a CLI answer with one atom dropped.
Exits 1 on the first check that does not hold.
"""

from __future__ import annotations

import sys
from pathlib import Path

from inputs import (
    dihedral_table,
    power,
    rotations,
    spec_text,
    symmetric4_table,
    twoblock,
    uniform_cyclic,
    v4_in_s4,
    z6z9,
)
from reference import Reference, atom_diff, pairs_compose, pairs_converse
from workloads import _query_verdict, _rows_verdict

SRC = Path(__file__).resolve().parent.parent / "src"

FRAMES = [
    z6z9(),
    twoblock(),
    uniform_cyclic("z12x3", 12, 3, 4),
    power("s4x3", symmetric4_table(), v4_in_s4(), 3),
    power("d6x2", dihedral_table(6), rotations(6, 3), 2),
]


def require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def closed_forms_match_sets(ref: Reference) -> None:
    pairs = {a: ref.atom_pairs(a) for a in ref.atoms()}
    union = set().union(*pairs.values())
    require(sum(map(len, pairs.values())) == len(union), f"{ref.spec.name}: atoms overlap")
    for a in pairs:
        require(pairs[ref.converse(a)] == pairs_converse(pairs[a]), f"{ref.spec.name}: conv {a}")
        for b in pairs:
            if a[1] != b[0]:
                continue
            got = set().union(*(pairs[c] for c in ref.compose(a, b)))
            require(got == pairs_compose(pairs[a], pairs[b]), f"{ref.spec.name}: {a};{b}")


def groupra_agrees(g, ref: Reference) -> None:
    frame = g.parse_frame(spec_text(ref.spec))
    require(g.check_frame_reduced(frame).ok, f"{ref.spec.name}: frame check")
    alg = g.GroupRelationAlgebra(frame)
    require([tuple(a) for a in alg.atoms()] == ref.atoms(), f"{ref.spec.name}: atoms")
    for a in alg.atoms():
        require(tuple(alg.converse_atom(a)) == ref.converse(a), f"{ref.spec.name}: conv {a}")
        want = ref.rows(ref.atom_pairs(a))
        require(_rows_verdict(want)(alg.atom_relation(a)) is None, f"{ref.spec.name}: rel {a}")
        for b in alg.atoms():
            got = alg.compose_atoms(a, b).atoms
            require(atom_diff(ref.compose(a, b), got) is None, f"{ref.spec.name}: {a};{b}")


def checker_flags_mutants(g) -> None:
    ref = Reference(uniform_cyclic("z12x3", 12, 3, 4))
    frame = g.parse_frame(spec_text(ref.spec))
    g.check_frame_reduced(frame)
    alg = g.GroupRelationAlgebra(frame)
    atoms = alg.atoms()
    a = next(t for t in atoms if tuple(t) == ("0", "1", 1))
    b = next(t for t in atoms if tuple(t) == ("1", "0", 2))
    got = set(alg.compose_atoms(a, b).atoms)
    want = ref.compose(a, b)
    require(atom_diff(want, got) is None, "true answer passes")
    stranger = next(t for t in atoms if t not in got)
    require(atom_diff(want, got | {stranger}) is not None, "one atom added is flagged")
    for t in got:
        require(atom_diff(want, got - {t}) is not None, "one atom dropped is flagged")

    rel = alg.atom_relation(a)
    verdict = _rows_verdict(ref.rows(ref.atom_pairs(a)))
    require(verdict(rel) is None, "true relation passes")
    flipped = list(rel.rows)
    flipped[3] ^= 1 << 5
    require(verdict(type(rel)(rel.size, tuple(flipped))) is not None, "one pair flipped is flagged")

    labels = [f"(({x},{z}),{c})" for x, z, c in sorted(want)]
    answer = " ".join(labels) + "\noracle: MATCH\n"
    check = _query_verdict(answer)
    require(check((0, answer, "")) is None, "true CLI answer passes")
    short = " ".join(labels[1:]) + "\noracle: MATCH\n"
    require(check((0, short, "")) is not None, "CLI answer with one atom dropped is flagged")
    require(check((1, answer, "")) is not None, "CLI exit code 1 is flagged")


def main() -> int:
    for spec in FRAMES:
        closed_forms_match_sets(Reference(spec))
    print(f"selftest: reference closed forms match set composition on {len(FRAMES)} frames")
    sys.path.insert(0, str(SRC))
    import groupra

    for spec in FRAMES:
        groupra_agrees(groupra, Reference(spec))
    print("selftest: groupra answers pass the checker on every atom and atom pair")
    checker_flags_mutants(groupra)
    print("selftest: the checker flags an atom added, an atom dropped, a flipped pair, "
          "a wrong CLI answer and a wrong exit code")
    return 0


if __name__ == "__main__":
    sys.exit(main())
