"""Tests for the symbolic algebra: atoms, operations, materialization, reports."""

import gc
import itertools
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupra.algebra import AtomIndex, FrameElement, GroupRelationAlgebra
from groupra.builders import build_complex_algebra_frame, build_cyclic_frame, build_power_frame
from groupra.errors import FrameMismatchError, InvalidFrameError, UncheckedFrameError
from groupra.fileformat import emit_frame, parse_frame
from groupra.frames import Frame, IsoRecord, check_frame_full, check_frame_reduced
from groupra.groups import (
    CosetSystem,
    FiniteGroup,
    elements,
    enumerate_cosets,
    is_normal,
    make_cyclic,
    mask_of,
    validate_table,
)
from groupra.relations import (
    ConcreteRelation,
    cayley_relation,
    identity_on,
    rel_compose,
    rel_converse,
    rel_union,
)
from groupra.verification import check_boolean_laws, check_identity_laws, check_oracle_composition

from tests.helpers import corrupt_kappa, frame_from_atom_table
from tests.test_groups import PERM_GENERATORS, closure, perm_group
import random


def fresh_running_algebra() -> GroupRelationAlgebra:
    return GroupRelationAlgebra(build_cyclic_frame([6, 9], {(0, 1): 3}))


ALG = fresh_running_algebra()
ATOM_SETS = st.frozensets(st.sampled_from(ALG.atoms()))


def test_algebra_requires_checked_frame():
    z6, z9 = make_cyclic(6), make_cyclic(9)
    raw = Frame(
        {"0": z6, "1": z9},
        [["0", "1"]],
        {
            ("0", "1"): IsoRecord(
                "0",
                "1",
                enumerate_cosets(z6, mask_of([0, 3])),
                enumerate_cosets(z9, mask_of([0, 3, 6])),
            )
        },
    )
    with pytest.raises(UncheckedFrameError):
        GroupRelationAlgebra(raw)
    check_frame_reduced(raw)
    GroupRelationAlgebra(raw)  # now fine


def test_algebra_rejects_failed_frame():
    bad = corrupt_kappa(random.Random(8))
    check_frame_reduced(bad)
    with pytest.raises(InvalidFrameError, match="failed its check"):
        GroupRelationAlgebra(bad)


def test_atom_enumeration_order():
    atoms = ALG.atoms()
    assert len(atoms) == 21
    assert atoms[:6] == tuple(AtomIndex("0", "0", a) for a in range(6))
    assert atoms[6:9] == tuple(AtomIndex("0", "1", a) for a in range(3))
    assert atoms[9:12] == tuple(AtomIndex("1", "0", a) for a in range(3))
    assert atoms[12:] == tuple(AtomIndex("1", "1", a) for a in range(9))
    assert atoms == tuple(sorted(atoms, key=ALG.atom_key))


def test_atom_order_on_interleaved_blocks():
    frame = build_cyclic_frame([4, 6, 8], {(0, 2): 2})
    assert frame.blocks == (("0", "2"), ("1",))
    alg = GroupRelationAlgebra(frame)
    sizes = [("0", "0", 4), ("0", "2", 2), ("1", "1", 6), ("2", "0", 2), ("2", "2", 8)]
    expected = [AtomIndex(x, y, a) for x, y, kappa in sizes for a in range(kappa)]
    assert len(expected) == 22
    assert list(alg.atoms()) == expected
    text = emit_frame(frame)
    assert text == (
        "group 0 cyclic 4\n"
        "group 1 cyclic 6\n"
        "group 2 cyclic 8\n"
        "block 0 2\n"
        "block 1\n"
        "iso 0 2\n"
        "H 0 2\n"
        "K 0 2 4 6\n"
        "map 0:0 1:1\n"
        "end\n"
    )
    assert parse_frame(text) == frame
    # blocks given out of declaration order are read in it
    reordered = Frame(frame.groups, [["2", "0"], ["1"]], frame.isos)
    assert check_frame_reduced(reordered).ok
    assert GroupRelationAlgebra(reordered).atoms() == alg.atoms()


def test_atom_label():
    assert AtomIndex("0", "1", 2).label() == "((0,1),2)"


def test_base_space_layout():
    assert ALG.base.offsets == {"0": 0, "1": 6}
    assert ALG.base.size == 15
    assert ALG.base.offsets["1"] + 4 == 10
    assert ALG.base.span("1", 9) == ((1 << 9) - 1) << 6


def test_element_rejects_foreign_atom():
    with pytest.raises(ValueError, match="not an atom"):
        ALG.element([AtomIndex("0", "1", 7)])


def test_element_rejects_a_plain_tuple():
    # ("0","1",1) equals AtomIndex("0","1",1), so only the type tells them apart
    with pytest.raises(ValueError, match=r"\('0', '1', 1\) is not an AtomIndex"):
        ALG.element([AtomIndex("0", "0", 0), ("0", "1", 1)])


def test_every_atom_method_rejects_a_plain_tuple():
    # each value equals and hashes like AtomIndex("0","1",1), an atom of the frame
    for value, not_atom in [
        (("0", "1", 1), r"\('0', '1', 1\) is not an AtomIndex"),
        (AtomIndex("0", "1", True), r"AtomIndex\(x='0', y='1', alpha=True\) is not an atom"),
        (AtomIndex("0", "1", 1.0), r"AtomIndex\(x='0', y='1', alpha=1\.0\) is not an atom"),
    ]:
        alg = fresh_running_algebra()
        atom, back, square = AtomIndex("0", "1", 1), AtomIndex("1", "0", 2), AtomIndex("0", "0", 3)
        calls = [
            lambda t: alg.compose_atoms(t, back),
            lambda t: alg.compose_atoms(square, t),
            lambda t: alg.converse_atom(t),
            lambda t: alg.fast_compose_subidentity(t, back),
            lambda t: alg.fast_compose_subidentity(square, t),
            lambda t: alg.atom_relation(t),
            lambda t: alg.element([t]),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=not_atom):
                call(value)
        # the equal AtomIndex's relation, once cached, must not answer for the value
        assert alg.atom_relation(atom).count() > 0
        with pytest.raises(ValueError, match=not_atom):
            alg.atom_relation(value)
        with pytest.raises(ValueError, match=r"AtomIndex\(x='0', y='1', alpha=3\) is not an atom"):
            alg.atom_relation(AtomIndex("0", "1", 3))


def test_the_gate_refuses_unhashable_values():
    alg = fresh_running_algebra()
    atom = AtomIndex("0", "1", 1)
    with pytest.raises(ValueError, match=r"\['0', '1', 1\] is not an AtomIndex"):
        alg.compose_atoms(["0", "1", 1], atom)
    with pytest.raises(ValueError, match=r"\['0', '1', 1\] is not an AtomIndex"):
        alg.element([atom, ["0", "1", 1]])
    with pytest.raises(ValueError, match=r"AtomIndex\(x='0', y='1', alpha=\[1\]\) is not an atom"):
        alg.converse_atom(AtomIndex("0", "1", [1]))


@pytest.mark.parametrize("name", ["z6z9.frame", "d4q8d4.frame"])
def test_atoms_handed_out_are_the_algebras_own_objects(name):
    frame = parse_frame((Path(__file__).resolve().parent.parent / "frames" / name).read_text())
    check_frame_reduced(frame)
    alg = GroupRelationAlgebra(frame)
    # the atoms() objects themselves, not equal copies
    own = {id(a) for a in alg.atoms()}

    def all_own(atoms) -> bool:
        return all(id(a) in own for a in atoms)

    for a in alg.atoms():
        assert id(alg.converse_atom(a)) in own
        for b in alg.atoms():
            assert all_own(alg.compose_atoms(a, b).atoms)
            assert all_own(alg.fast_compose_subidentity(a, b).atoms)
    assert all_own(alg.compose(alg.unit(), alg.unit()).atoms)
    assert all_own(alg.identity_element().atoms)
    assert all_own(entry.atom for entry in alg.measure_report().entries)


def test_zero_unit_identity():
    assert len(ALG.zero()) == 0
    assert ALG.unit().atoms == ALG.all_atoms
    ident = ALG.identity_element()
    assert ident.sorted_atoms() == [AtomIndex("0", "0", 0), AtomIndex("1", "1", 0)]
    assert ALG.materialize(ident) == identity_on(15)


def test_converse_atom_examples():
    assert ALG.converse_atom(AtomIndex("0", "1", 1)) == AtomIndex("1", "0", 2)
    assert ALG.converse_atom(AtomIndex("0", "0", 0)) == AtomIndex("0", "0", 0)
    assert ALG.converse_atom(AtomIndex("0", "0", 2)) == AtomIndex("0", "0", 4)
    for a in ALG.atoms():
        assert ALG.converse_atom(ALG.converse_atom(a)) == a


def test_compose_atoms_examples():
    got = ALG.compose_atoms(AtomIndex("0", "1", 1), AtomIndex("1", "0", 1))
    assert got.sorted_atoms() == [AtomIndex("0", "0", 2), AtomIndex("0", "0", 5)]
    got = ALG.compose_atoms(AtomIndex("0", "1", 1), AtomIndex("1", "1", 1))
    assert got.sorted_atoms() == [AtomIndex("0", "1", 2)]
    got = ALG.compose_atoms(AtomIndex("0", "0", 2), AtomIndex("0", "0", 5))
    assert got.sorted_atoms() == [AtomIndex("0", "0", 1)]


def test_compose_atoms_middle_mismatch_is_empty():
    got = ALG.compose_atoms(AtomIndex("0", "1", 1), AtomIndex("0", "1", 1))
    assert len(got) == 0


def test_non_composable_pairs_share_the_empty_element(monkeypatch):
    alg = fresh_running_algebra()
    pairs = [(a, b) for a in alg.atoms() for b in alg.atoms() if a.y != b.x]
    assert len(pairs) == 2 * (6 + 3) * (3 + 9)
    first = alg.compose_atoms(*pairs[0])
    assert first == alg.zero() and len(first) == 0
    built = []
    real_init = FrameElement.__init__

    def counting_init(self, algebra, atoms):
        built.append(atoms)
        real_init(self, algebra, atoms)

    monkeypatch.setattr(FrameElement, "__init__", counting_init)
    assert all(alg.compose_atoms(a, b) is first for a, b in pairs)
    assert all(alg.fast_compose_subidentity(a, b) is first for a, b in pairs)
    assert built == []
    # a composable pair still gets an element of its own on each call
    a, b = AtomIndex("0", "1", 0), AtomIndex("1", "0", 0)
    assert alg.compose_atoms(a, b) is not alg.compose_atoms(a, b)
    assert len(built) == 2


def test_atoms_are_gated_before_the_empty_shortcut():
    alg = fresh_running_algebra()
    atom = AtomIndex("0", "1", 1)
    alg.zero()
    # each bad value is paired with an atom it could not compose with
    for bad, message in [
        (("0", "1", 1), r"\('0', '1', 1\) is not an AtomIndex"),
        (AtomIndex("0", "1", 7), r"AtomIndex\(x='0', y='1', alpha=7\) is not an atom"),
    ]:
        with pytest.raises(ValueError, match=message):
            alg.compose_atoms(bad, atom)
        with pytest.raises(ValueError, match=message):
            alg.compose_atoms(atom, bad)


def test_composable_pairs_leave_the_algebra_acyclic(monkeypatch, capsys):
    # Only the cyclic collector frees an algebra that holds an element of its
    # own, so with it off an algebra must die with its last reference.
    import groupra.cli

    refs = []
    real_load = groupra.cli._load_algebra

    def load(path):
        alg = real_load(path)
        refs.append(weakref.ref(alg))
        return alg

    monkeypatch.setattr(groupra.cli, "_load_algebra", load)
    frame = str(Path(__file__).resolve().parent.parent / "frames" / "z6z9.frame")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        assert groupra.cli.main(["op", frame, "comp", "0", "1", "1", "0", "1", "--check"]) == 0
        assert capsys.readouterr().out.endswith("oracle: MATCH\n")
        alg = fresh_running_algebra()
        refs.append(weakref.ref(alg))
        for a in alg.atoms():
            for b in alg.atoms():
                if a.y == b.x:
                    alg.compose_atoms(a, b)
        del alg
        assert [ref() for ref in refs] == [None, None]
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("field", ["atoms", "algebra"])
def test_element_fields_are_read_only(field):
    alg = fresh_running_algebra()
    e = alg.element([AtomIndex("0", "0", 1)])
    held = {e}
    with pytest.raises(AttributeError):
        setattr(e, field, getattr(alg.unit(), field))
    assert e in held
    with pytest.raises(AttributeError):
        setattr(alg.zero(), field, getattr(alg.unit(), field))
    assert len(alg.compose_atoms(AtomIndex("0", "1", 1), AtomIndex("0", "1", 1))) == 0


def test_compose_atoms_cached():
    a, b = AtomIndex("0", "1", 0), AtomIndex("1", "0", 0)
    first = ALG.compose_atoms(a, b)
    second = ALG.compose_atoms(a, b)
    assert first.atoms is second.atoms


def test_composition_reads_one_rule_per_triple(monkeypatch):
    import groupra.algebra

    triples = []
    real = groupra.algebra._p0

    def counting(frame, x, y, z):
        triples.append((x, y, z))
        return real(frame, x, y, z)

    def refuse(*args):
        raise AssertionError("compose_atoms called complex_product")

    monkeypatch.setattr(groupra.algebra, "_p0", counting)
    monkeypatch.setattr(groupra.algebra, "complex_product", refuse, raising=False)
    alg = fresh_running_algebra()
    for _ in range(2):
        for a in alg.atoms():
            for b in alg.atoms():
                alg.compose_atoms(a, b)
    assert sorted(triples) == sorted(itertools.product("01", repeat=3))


def dihedral_square() -> FiniteGroup:
    """D4 as the symmetries of a square's vertices 0..3, identity first."""
    perms = [(0, 1, 2, 3)]
    for p in perms:
        for gen in [(1, 2, 3, 0), (0, 3, 2, 1)]:
            q = tuple(p[i] for i in gen)
            if q not in perms:
                perms.append(q)
    index = {p: n for n, p in enumerate(perms)}
    return validate_table([[index[tuple(p[i] for i in q)] for q in perms] for p in perms], "D4")


def quaternion_units() -> FiniteGroup:
    """Q8 as the units +-1, +-i, +-j, +-k under quaternion multiplication."""
    units = [(sign, axis) for sign in (1, -1) for axis in "1ijk"]

    def mul(p, q):
        (s, a), (t, b) = p, q
        if a == "1" or b == "1":
            return (s * t, b if a == "1" else a)
        if a == b:
            return (-s * t, "1")
        cyclic = 1 if a + b in "ijki" else -1
        return (s * t * cyclic, ({"i", "j", "k"} - {a, b}).pop())

    index = {u: n for n, u in enumerate(units)}
    return validate_table([[index[mul(p, q)] for q in units] for p in units], "Q8")


def centre(g: FiniteGroup) -> int:
    return mask_of(
        a for a in g.elements() if all(g.mul(a, b) == g.mul(b, a) for b in g.elements())
    )


def test_d4_q8_d4_glued_along_centres_under_every_map_choice():
    groups = {"0": dihedral_square(), "1": quaternion_units(), "2": dihedral_square()}
    systems = {x: enumerate_cosets(g, centre(g)) for x, g in groups.items()}
    assert all(s.count == 4 for s in systems.values())
    pairs = [("0", "1"), ("0", "2"), ("1", "2")]
    passed = 0
    # every bijection of V4 that fixes the identity is an automorphism
    for maps in itertools.product(itertools.permutations((1, 2, 3)), repeat=3):
        isos = {}
        for (x, y), order in zip(pairs, maps):
            k = systems[y]
            image = CosetSystem(k.subgroup, (k.subgroup, *(k.cosets[i] for i in order)))
            isos[(x, y)] = IsoRecord(x, y, systems[x], image)
        frame = Frame(groups, [["0", "1", "2"]], isos)
        full = check_frame_full(frame).ok
        reduced = check_frame_reduced(frame).ok
        assert full == reduced, maps
        if reduced:
            passed += 1
            assert check_oracle_composition(GroupRelationAlgebra(frame)) == [], maps
            assert frame_from_atom_table(GroupRelationAlgebra(frame)) == frame, maps
    assert passed == 36


def test_fast_paths_match_generic_composition():
    for a in ALG.atoms():
        for b in ALG.atoms():
            assert ALG.fast_compose_subidentity(a, b) == ALG.compose_atoms(a, b)


def test_fast_paths_fall_back_to_generic_composition():
    """Pairs (x,y);(y,z) over three distinct groups have no closed form, and
    on d4q8d4 left and right translates differ, so every pair counts there."""
    z24 = build_cyclic_frame([24] * 3, {(i, j): 12 for i in range(3) for j in range(i + 1, 3)})
    path = Path(__file__).resolve().parent.parent / "frames" / "d4q8d4.frame"
    d4q8d4 = parse_frame(path.read_text())
    assert check_frame_reduced(z24).ok and check_frame_reduced(d4q8d4).ok
    for frame, every_pair in [(z24, False), (d4q8d4, True)]:
        alg = GroupRelationAlgebra(frame)
        pairs = [
            (a, b)
            for a in alg.atoms()
            for b in alg.atoms()
            if a.y == b.x and (every_pair or len({a.x, a.y, b.y}) == 3)
        ]
        assert any(len({a.x, a.y, b.y}) == 3 for a, b in pairs)
        for a, b in pairs:
            assert alg.fast_compose_subidentity(a, b) == alg.compose_atoms(a, b), (a, b)


def test_atom_relation_mod3_values():
    for k in range(3):
        rel = ALG.atom_relation(AtomIndex("0", "1", k))
        expected = [
            (a, 6 + b) for a in range(6) for b in range(9) if b % 3 == (a + k) % 3
        ]
        assert rel.pairs() == expected
        assert rel.count() == 18


def test_square_atom_relations_are_cayley():
    z6, z9 = make_cyclic(6), make_cyclic(9)
    for f in range(6):
        assert ALG.atom_relation(AtomIndex("0", "0", f)) == cayley_relation(
            z6, f, offset=0, size=15
        )
    for g in range(9):
        assert ALG.atom_relation(AtomIndex("1", "1", g)) == cayley_relation(
            z9, g, offset=6, size=15
        )


def test_atom_relations_partition_unit():
    union = ALG.materialize(ALG.zero())
    total = 0
    for a in ALG.atoms():
        rel = ALG.atom_relation(a)
        assert rel.count() > 0
        total += rel.count()
        union = rel_union(union, rel)
    assert union == ALG.unit_relation()
    assert total == union.count() == 15 * 15


def test_atom_size_is_the_order_of_its_source_times_its_kernel(corpus_algebras):
    for alg in corpus_algebras:
        for a in alg.atoms():
            kernel = alg.frame.resolve_iso(a.x, a.y).k.subgroup.bit_count()
            assert alg.frame.groups[a.x].order * kernel == alg.atom_relation(a).count(), a


def atom_pairs_by_definition(alg: GroupRelationAlgebra, a: AtomIndex) -> set:
    """{(offx+p, offy+k*s) : p in H_i, k in K_i, s in K_alpha}, element by element."""
    record = alg.frame.resolve_iso(a.x, a.y)
    gy = alg.frame.groups[a.y]
    offx, offy = alg.base.offsets[a.x], alg.base.offsets[a.y]
    shift = elements(record.k.cosets[a.alpha])
    return {
        (offx + p, offy + gy.mul(k, s))
        for hc, kc in zip(record.h.cosets, record.k.cosets)
        for p in elements(hc)
        for k in elements(kc)
        for s in shift
    }


def shipped_frames() -> list[Frame]:
    frames = []
    for path in sorted((Path(__file__).resolve().parent.parent / "frames").glob("*.frame")):
        frame = parse_frame(path.read_text())
        assert check_frame_reduced(frame).ok, path.name
        frames.append(frame)
    return frames


def materialization_frames() -> list[Frame]:
    frames = shipped_frames()
    for label in ("S3", "D4", "Q8", "A4"):
        g = perm_group(label, *PERM_GENERATORS[label])
        subgroups = {closure(g, p, q) for p in g.elements() for q in g.elements()}
        for n in sorted(n for n in subgroups if is_normal(g, n)):
            frames.append(build_power_frame(g, n, ["0", "1"]))
    return frames


def test_atom_relations_match_their_definition():
    frames = materialization_frames()
    # power frames over every normal subgroup: S3 3, D4 6, Q8 6, A4 3
    shipped = len(frames) - (3 + 6 + 6 + 3)
    assert shipped >= 5
    for frame in frames:
        alg = GroupRelationAlgebra(frame)
        for a in alg.atoms():
            expected = ConcreteRelation.from_pairs(alg.base.size, atom_pairs_by_definition(alg, a))
            assert alg.atom_relation(a) == expected, a


def test_atom_relations_read_their_columns_off_the_coset_lookup(monkeypatch):
    import groupra.algebra

    def refuse(*args):
        raise AssertionError("atom_relation called complex_product")

    monkeypatch.setattr(groupra.algebra, "complex_product", refuse, raising=False)
    for frame in materialization_frames():
        alg = GroupRelationAlgebra(frame)
        for a in alg.atoms():
            alg.atom_relation(a)


def test_materialize_unions_atoms():
    e = ALG.element([AtomIndex("0", "1", 0), AtomIndex("0", "1", 2)])
    assert ALG.materialize(e) == rel_union(
        ALG.atom_relation(AtomIndex("0", "1", 0)),
        ALG.atom_relation(AtomIndex("0", "1", 2)),
    )
    # d4q8d4: non-abelian, with maps that are not identities.  Every atom of a
    # pair (x,y) has pairs in each row of G_x, so two of them share their rows.
    path = Path(__file__).resolve().parent.parent / "frames" / "d4q8d4.frame"
    frame = parse_frame(path.read_text())
    assert check_frame_reduced(frame).ok
    alg = GroupRelationAlgebra(frame)
    by_pair: dict[tuple[str, str], list[AtomIndex]] = {}
    for a in alg.atoms():
        by_pair.setdefault((a.x, a.y), []).append(a)
    samples = [list(two) for atoms in by_pair.values() for two in itertools.combinations(atoms, 2)]
    samples += list(by_pair.values())
    rng = random.Random(33)
    samples += [rng.sample(alg.atoms(), k) for k in (2, 3, 5, 9, 17, 33) for _ in range(4)]
    samples += [list(alg.atoms())]
    assert any(len({(a.x, a.y) for a in atoms}) > 3 for atoms in samples)
    size = alg.base.size
    for atoms in samples:
        expected = set().union(*(atom_pairs_by_definition(alg, a) for a in atoms))
        assert alg.materialize(alg.element(atoms)) == ConcreteRelation.from_pairs(size, expected)
    first, second = by_pair[("0", "1")][:2]
    rows = [{i for i, row in enumerate(alg.atom_relation(a).rows) if row} for a in (first, second)]
    assert rows[0] == rows[1] == set(range(8))


def test_element_operations_match_oracle():
    e1 = ALG.element([AtomIndex("0", "1", 1), AtomIndex("0", "0", 3)])
    e2 = ALG.element([AtomIndex("1", "0", 1), AtomIndex("0", "1", 0)])
    assert ALG.materialize(e1.converse()) == rel_converse(ALG.materialize(e1))
    assert ALG.materialize(e1.compose(e2)) == rel_compose(
        ALG.materialize(e1), ALG.materialize(e2)
    )


def test_identity_neutral():
    ident = ALG.identity_element()
    for a in ALG.atoms():
        e = ALG.element([a])
        assert e.compose(ident) == e
        assert ident.compose(e) == e


@settings(max_examples=60)
@given(ATOM_SETS, ATOM_SETS)
def test_de_morgan(atoms1, atoms2):
    e1, e2 = ALG.element(atoms1), ALG.element(atoms2)
    assert (e1 | e2).complement() == e1.complement() & e2.complement()
    assert (e1 & e2).complement() == e1.complement() | e2.complement()


@settings(max_examples=60)
@given(ATOM_SETS, ATOM_SETS)
def test_second_involution_law(atoms1, atoms2):
    e1, e2 = ALG.element(atoms1), ALG.element(atoms2)
    assert e1.compose(e2).converse() == e2.converse().compose(e1.converse())


@settings(max_examples=30)
@given(ATOM_SETS)
def test_complement_partitions_unit(atoms):
    e = ALG.element(atoms)
    assert (e | e.complement()) == ALG.unit()
    assert len(e & e.complement()) == 0


def test_frame_mismatch_rejected():
    other = fresh_running_algebra()
    e1 = ALG.element([AtomIndex("0", "1", 0)])
    e2 = other.element([AtomIndex("0", "1", 0)])
    assert e1 != e2  # distinct frame objects
    with pytest.raises(FrameMismatchError):
        e1.union(e2)
    with pytest.raises(FrameMismatchError):
        e1.compose(e2)


def z6z9_at(kappa: int) -> GroupRelationAlgebra:
    return GroupRelationAlgebra(build_cyclic_frame([6, 9], {(0, 1): kappa}))


def test_every_element_operation_refuses_an_element_of_another_frame():
    # e holds two atoms of the other frame.  Read through the atom gate alone,
    # kappa 3 against 1 gave wrong answers (materialize 36 pairs; compose 5
    # atoms, where the other frame gives 15), and kappa 1 against 3 raised
    # ValueError or, in compose, IndexError
    for mine, theirs in [(3, 1), (1, 3)]:
        a, b = z6z9_at(mine), z6z9_at(theirs)
        e = b.element(b.atoms()[6:8])
        e2 = b.converse(e)
        x = a.element(a.atoms()[6:8])
        refused = [
            lambda: a.materialize(e),
            lambda: a.converse(e),
            lambda: a.compose(e, e2),
            lambda: a.compose(e, x),
            lambda: a.compose(x, e),
            lambda: x | e,
            lambda: x & e,
            lambda: a.materialize(x.atoms),
            lambda: a.converse(x.atoms),
            lambda: a.compose(x, x.atoms),
        ]
        for op in refused:
            with pytest.raises(FrameMismatchError, match=r"^elements belong to different frames$"):
                op()
        assert len(b.compose(e, e2)) == (15 if theirs == 1 else 6)


def test_an_element_of_a_second_algebra_over_the_same_frame_gets_the_same_answers():
    frame = build_cyclic_frame([6, 9], {(0, 1): 3})
    a, b = GroupRelationAlgebra(frame), GroupRelationAlgebra(frame)
    rng = random.Random(34)
    e, e2 = (b.element(rng.sample(b.atoms(), 8)) for _ in range(2))
    x = a.element(rng.sample(a.atoms(), 8))
    assert a.materialize(e) == b.materialize(e) == e.relation()
    assert a.converse(e) == b.converse(e) == e.converse()
    assert a.compose(e, e2) == b.compose(e, e2) == e.compose(e2)
    assert a.compose(x, e) == b.compose(x, e) and a.compose(e, x) == b.compose(e, x)
    assert (x | e).atoms == x.atoms | e.atoms and (x & e).atoms == x.atoms & e.atoms
    assert (e | x) == (x | e) and (e & x) == (x & e)


def test_materialize_gates_the_element_and_not_its_atoms(monkeypatch):
    alg = fresh_running_algebra()
    calls = []
    real = alg._require_atom

    def counting(a):
        calls.append(a)
        real(a)

    monkeypatch.setattr(alg, "_require_atom", counting)
    assert alg.materialize(alg.unit()) == alg.unit_relation()
    assert calls == []
    a = alg.atoms()[7]
    alg.atom_relation(a)
    assert calls == [a]


def test_element_relation_is_its_materialization():
    alg = fresh_running_algebra()
    e = alg.element(alg.atoms()[6:9])
    rel = e.relation()
    assert rel == alg.materialize(e)
    # ((0,1),0), ((0,1),1), ((0,1),2) cover G_0 x G_1: 6 * 9 pairs
    assert sum(row.bit_count() for row in rel.rows) == 54
    assert alg.unit().relation() == alg.unit_relation()


def test_element_equality_with_a_non_element_is_not_implemented():
    e = ALG.element([AtomIndex("0", "1", 0)])
    assert e.__eq__(AtomIndex("0", "1", 0)) is NotImplemented
    assert e.__eq__(e.atoms) is NotImplemented
    assert e != e.atoms and e.atoms != e and e != 0


def union_of_atom_compositions(alg: GroupRelationAlgebra, e1, e2) -> frozenset:
    """e1;e2 by definition: the union of a;b over every atom pair."""
    out = frozenset()
    for a in e1.atoms:
        for b in e2.atoms:
            out |= alg.compose_atoms(a, b).atoms
    return out


def s4_cubed_along_v4() -> Frame:
    s4 = perm_group("S4", (1, 2, 3, 0), (1, 0, 2, 3))
    subgroups = {closure(s4, p, q) for p in s4.elements() for q in s4.elements()}
    (v4,) = [n for n in subgroups if n.bit_count() == 4 and is_normal(s4, n)]
    return build_power_frame(s4, v4, ["0", "1", "2"])


def composition_frames() -> list[Frame]:
    z60 = build_cyclic_frame([60] * 4, {(i, j): 12 for i in range(4) for j in range(i + 1, 4)})
    return shipped_frames() + [z60, s4_cubed_along_v4()]


def test_element_composition_is_the_union_of_its_atom_compositions():
    rng = random.Random(20261018)
    for frame in composition_frames():
        alg = GroupRelationAlgebra(frame)
        atoms = alg.atoms()
        by_pair: dict = {}
        for a in atoms:
            by_pair.setdefault((a.x, a.y), []).append(a)
        # one atom from every pair: spread over all pairs and, where there
        # are several, over all blocks
        spread = alg.element(rng.choice(pair) for pair in by_pair.values())
        samples = [alg.zero(), alg.unit(), alg.identity_element(), spread]
        samples += [alg.element([a]) for a in rng.sample(atoms, min(6, len(atoms)))]
        samples += [
            alg.element(rng.sample(atoms, rng.randint(2, min(24, len(atoms))))) for _ in range(6)
        ]
        for block in frame.blocks:
            inside = [a for a in atoms if a.x in block]
            samples.append(alg.element(rng.sample(inside, min(5, len(inside)))))
        for e1 in samples:
            for e2 in samples:
                assert alg.compose(e1, e2).atoms == union_of_atom_compositions(alg, e1, e2), (
                    frame.order,
                    e1,
                    e2,
                )


def test_element_composition_builds_only_the_rules_it_reads():
    alg = GroupRelationAlgebra(composition_frames()[-1])
    atoms = alg.atoms()
    rng = random.Random(5)
    e1 = alg.element(rng.sample(atoms, 12))
    e2 = alg.element(rng.sample(atoms, 12))
    alg.compose(e1, e2)
    reached = {(a.x, a.y, b.y) for a in e1.atoms for b in e2.atoms if a.y == b.x}
    assert set(alg._rules) == reached


def test_rules_build_no_coset_system_but_p0(monkeypatch):
    frame = build_cyclic_frame([60] * 4, {(i, j): 12 for i in range(4) for j in range(i + 1, 4)})
    assert check_frame_reduced(frame).ok
    alg = GroupRelationAlgebra(frame)
    groups = list({id(g): g for g in frame.groups.values()}.values())
    before = sum(len(g._cosets) for g in groups)
    built = []
    real = CosetSystem.__init__

    def counting(self, subgroup, cosets):
        built.append(subgroup)
        real(self, subgroup, cosets)

    monkeypatch.setattr(CosetSystem, "__init__", counting)
    for x, y, z in itertools.product(frame.order, repeat=3):
        alg._rule(x, y, z)
    assert len(alg._rules) == 64
    # each system built is a P0 that enumerate_cosets keeps on its group
    assert len(built) == sum(len(g._cosets) for g in groups) - before
    assert all(any(g._cosets.get(h) for g in groups) for h in built)


def test_cross_frame_composition_is_refused_before_any_rule_is_built(monkeypatch):
    import groupra.algebra

    def refuse(*args):
        raise AssertionError("a rule was built")

    monkeypatch.setattr(groupra.algebra, "_p0", refuse)
    mine, other = fresh_running_algebra(), fresh_running_algebra()
    for e1, e2 in [
        (mine.element([AtomIndex("0", "1", 0)]), other.element([AtomIndex("1", "0", 0)])),
        (mine.unit(), other.unit()),
        (mine.zero(), other.unit()),
    ]:
        with pytest.raises(FrameMismatchError):
            mine.compose(e1, e2)
        with pytest.raises(FrameMismatchError):
            e2.compose(e1)
    assert mine._rules == {} and other._rules == {}


def test_measure_report_running():
    report = ALG.measure_report()
    assert [(e.x, e.atom, e.measure) for e in report.entries] == [
        ("0", AtomIndex("0", "0", 0), 6),
        ("1", AtomIndex("1", "1", 0), 9),
    ]
    assert not report.pair_dense
    assert not report.singleton_dense


def test_measure_report_materializes_no_relation(monkeypatch):
    def refuse(self, a):
        raise AssertionError(f"materialized {a.label()}")

    monkeypatch.setattr(GroupRelationAlgebra, "atom_relation", refuse)
    monkeypatch.setattr(GroupRelationAlgebra, "materialize", refuse)
    running = fresh_running_algebra()
    assert [e.measure for e in running.measure_report().entries] == [6, 9]
    z1024 = GroupRelationAlgebra(build_complex_algebra_frame(make_cyclic(1024)))
    assert [e.measure for e in z1024.measure_report().entries] == [1024]


def test_atom_relation_keeps_no_relation():
    alg = fresh_running_algebra()
    a = alg.atoms()[7]
    rel = alg.atom_relation(a)
    again = alg.atom_relation(a)
    assert again == rel and again is not rel
    dead = weakref.ref(rel)
    del rel, again
    gc.collect()
    assert dead() is None


def test_measure_composes_each_identity_atom_with_its_square_atoms(monkeypatch):
    path = Path(__file__).resolve().parent.parent / "frames" / "z6z9.frame"
    frame = parse_frame(path.read_text())
    assert check_frame_reduced(frame).ok
    alg = GroupRelationAlgebra(frame)
    sizes = []
    real = alg._compose_by_triple

    def recording(left, right):
        sizes.append(len(right))
        return real(left, right)

    monkeypatch.setattr(alg, "_compose_by_triple", recording)
    assert [e.measure for e in alg.measure_report().entries] == [6, 9]
    # 1'_0 is composed with the 6 square atoms of 0, 1'_1 with the 9 of 1; then ;1'_x
    assert sizes == [6, 1, 9, 1]


def test_measure_report_catches_a_broken_engine(monkeypatch):
    alg = fresh_running_algebra()
    monkeypatch.setattr(alg, "compose_atoms", lambda a, b: alg.zero())
    with pytest.raises(RuntimeError, match=r"^square atom \(\(0,0\),0\) is not functional$"):
        alg.measure_report()


def test_atom_table_determines_the_frame(corpus):
    for frame in materialization_frames() + corpus:
        assert frame_from_atom_table(GroupRelationAlgebra(frame)) == frame, frame


def test_measure_density_flags():
    pairs = GroupRelationAlgebra(build_cyclic_frame([2, 2], {(0, 1): 2}))
    report = pairs.measure_report()
    assert report.pair_dense and not report.singleton_dense
    singles = GroupRelationAlgebra(build_cyclic_frame([1, 1], {(0, 1): 1}))
    report = singles.measure_report()
    assert report.pair_dense and report.singleton_dense


def test_simple_and_decompose():
    assert ALG.is_simple()
    two = GroupRelationAlgebra(build_cyclic_frame([2, 3], {}))
    assert not two.is_simple()
    parts = two.decompose()
    assert len(parts) == 2
    for part in parts:
        sub = GroupRelationAlgebra(part)
        assert sub.is_simple()
    assert sum(
        len(GroupRelationAlgebra(p).atoms()) for p in parts
    ) == len(two.atoms())


def test_empty_frame_is_degenerate():
    alg = GroupRelationAlgebra(build_cyclic_frame([], {}))
    assert alg.atoms() == ()
    assert not alg.is_simple()
    assert alg.decompose() == []
    assert alg.base.size == 0
    assert alg.unit() == alg.zero()
    # every sampled element of an algebra without atoms is the empty one
    assert check_identity_laws(alg) == check_boolean_laws(alg) == []


def test_repr_lists_atoms_sorted():
    e = ALG.element([AtomIndex("0", "0", 5), AtomIndex("0", "0", 2)])
    assert repr(e) == "{((0,0),2),((0,0),5)}"
