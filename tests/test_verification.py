"""Tests for the verification sweeps themselves."""

import random

from groupra.algebra import AtomIndex, FrameElement, GroupRelationAlgebra
from groupra.builders import build_cyclic_frame
from groupra.frames import check_frame_full
from groupra.relations import ConcreteRelation
from groupra.verification import (
    VERIFY_SWEEPS,
    check_associativity,
    check_boolean_laws,
    check_identity_laws,
    check_image_equations,
    check_involution,
    check_oracle_composition,
    check_oracle_converse,
    check_partition,
    verify_algebra,
)

from tests.helpers import corrupt_kappa, corrupt_map, random_cyclic_spec


def test_all_sweeps_clean_on_running_algebra(running_algebra):
    for name, failures in verify_algebra(running_algebra):
        assert failures == [], f"{name}: {failures}"


def test_sweep_order_is_fixed(running_algebra):
    names = [name for name, _ in verify_algebra(running_algebra)]
    assert names == [name for name, _ in VERIFY_SWEEPS]
    assert names == [
        "partition",
        "converse-oracle",
        "composition-oracle",
        "involution",
        "associativity",
        "identity-laws",
        "boolean-laws",
        "fast-paths",
        "image-equations",
    ]


def test_associativity_cap_is_deterministic(running_algebra):
    assert check_associativity(running_algebra, cap=5) == []
    assert check_associativity(running_algebra, cap=len(running_algebra.atoms())) == []


def test_law_sweeps_are_seeded(running_algebra):
    first = check_boolean_laws(running_algebra, count=20, seed=3)
    second = check_boolean_laws(running_algebra, count=20, seed=3)
    assert first == second == []
    assert check_identity_laws(running_algebra, count=10, seed=5) == []


def test_composition_oracle_names_a_wrong_engine_answer(running_frame, monkeypatch):
    alg = GroupRelationAlgebra(running_frame)
    atoms = alg.atoms()
    assert check_oracle_composition(alg) == []
    real = alg.compose_atoms
    related = next((a, b) for a in atoms for b in atoms if a.y == b.x and a.x != b.y)
    unrelated = next((a, b) for a in atoms for b in atoms if a.y != b.x)
    for a, b in (related, unrelated):
        right = real(a, b).atoms
        extra = next(t for t in atoms if t not in right)

        def wrong(p, q, pair=(a, b), extra=extra):
            got = real(p, q)
            return alg.element(got.atoms | {extra}) if (p, q) == pair else got

        monkeypatch.setattr(alg, "compose_atoms", wrong)
        expected = f"{a.label()};{b.label()} disagrees with the oracle"
        assert check_oracle_composition(alg) == [expected]


def test_converse_oracle_names_a_wrong_converse(running_frame, monkeypatch):
    alg = GroupRelationAlgebra(running_frame)
    atoms = alg.atoms()
    assert check_oracle_converse(alg) == []
    real = alg.converse_atom
    for a in (atoms[0], next(a for a in atoms if a.x != a.y)):
        right = real(a)
        wrong_answer = next(t for t in atoms if t != right)

        def wrong(p, a=a, wrong_answer=wrong_answer):
            return wrong_answer if p == a else real(p)

        monkeypatch.setattr(alg, "converse_atom", wrong)
        expected = f"converse of {a.label()} disagrees with the oracle"
        assert check_oracle_converse(alg) == [expected]


def test_converse_oracle_builds_each_relation_once(running_frame, monkeypatch):
    alg = GroupRelationAlgebra(running_frame)
    built = []
    real = alg.atom_relation

    def counting(a):
        built.append(a)
        return real(a)

    monkeypatch.setattr(alg, "atom_relation", counting)
    assert check_oracle_converse(alg) == []
    assert sorted(built, key=alg.atom_key) == list(alg.atoms())


def test_image_equations_hold_on_random_frames():
    rng = random.Random(31)
    for _ in range(6):
        orders, kappa = random_cyclic_spec(rng, small=True)
        frame = build_cyclic_frame(orders, kappa)
        assert check_image_equations(frame) == []


def test_image_equations_fail_on_mismatched_kappa():
    bad = corrupt_kappa(random.Random(3))
    failures = check_image_equations(bad)
    assert "first image equation fails at (0,1,2)" in failures
    assert not check_frame_full(bad).ok


def test_map_perturbation_hides_from_image_equations():
    # reordering K-cosets by an automorphism leaves every subgroup-level
    # image equation intact; only the induced-map condition sees it
    base = build_cyclic_frame(
        [4, 8, 12], {(i, j): 4 for i in range(3) for j in range(i + 1, 3)}
    )
    bad = corrupt_map(base, ("0", "1"), 3)
    assert check_image_equations(bad) == []
    report = check_frame_full(bad)
    assert not report.ok
    assert {v.condition for v in report.violations} == {"iv"}


def _broken_cyclic_algebra(monkeypatch) -> GroupRelationAlgebra:
    """Z6, Z9, Z12 with kappa 3, whose converse sends every atom to alpha 0."""
    frame = build_cyclic_frame([6, 9, 12], {(0, 1): 3, (0, 2): 3, (1, 2): 3})
    alg = GroupRelationAlgebra(frame)
    monkeypatch.setattr(alg, "converse_atom", lambda a: AtomIndex(a.y, a.x, 0))
    return alg


def test_involution_reports_its_first_ten_failures(monkeypatch):
    alg = _broken_cyclic_algebra(monkeypatch)
    # the first law fails at every atom with alpha != 0, before any pair is tried
    expected = [f"converse of {a.label()} is not involutive" for a in alg.atoms() if a.alpha]
    assert len(expected) == 36
    assert check_involution(alg) == expected[:10]


def test_no_sweep_reports_more_than_ten_failures(monkeypatch):
    alg = _broken_cyclic_algebra(monkeypatch)
    real = alg.compose_atoms
    first = alg.atoms()[0]

    def wrong(a, b):
        got = real(a, b)
        return alg.element(got.atoms | {first}) if a.y == b.x else got

    monkeypatch.setattr(alg, "compose_atoms", wrong)
    # up to seven Boolean laws fail on each sample
    monkeypatch.setattr(FrameElement, "complement", lambda e: e)
    report = dict(verify_algebra(alg))
    assert max(len(failures) for failures in report.values()) == 10
    assert len(report["involution"]) == len(report["boolean-laws"]) == 10
    assert len(list(check_boolean_laws.__wrapped__(alg))) > 10
    # up to three image equations fail at each triple
    bad = corrupt_kappa(random.Random(3))
    assert len(list(check_image_equations.__wrapped__(bad))) == 12
    assert check_image_equations(bad) == list(check_image_equations.__wrapped__(bad))[:10]


def test_involution_builds_one_converse_element_per_atom(monkeypatch):
    frame = build_cyclic_frame([24, 24, 24], {(0, 1): 12, (0, 2): 12, (1, 2): 12})
    check_frame_full(frame)
    alg = GroupRelationAlgebra(frame)
    assert len(alg.atoms()) == 144
    calls = []
    real = alg.element

    def counting(atoms):
        calls.append(None)
        return real(atoms)

    monkeypatch.setattr(alg, "element", counting)
    assert check_involution(alg) == []
    assert len(calls) <= 2 * len(alg.atoms())


def test_partition_names_an_atom_that_overlaps_an_earlier_one(running_frame, monkeypatch):
    alg = GroupRelationAlgebra(running_frame)
    first, second = alg.atoms()[:2]
    real = alg.atom_relation
    # ((0,0),1) given the pairs of ((0,0),0), the identity on G_0: row 0 meets first
    monkeypatch.setattr(alg, "atom_relation", lambda a: real(first if a == second else a))
    assert check_partition(alg) == [
        "atom ((0,0),1) overlaps an earlier atom in row 0",
        "atom union differs from the unit relation",
    ]


def test_partition_names_an_atom_union_short_of_the_unit(running_frame, monkeypatch):
    alg = GroupRelationAlgebra(running_frame)
    last = alg.atoms()[-1]
    real = alg.atom_relation
    empty = ConcreteRelation.empty(alg.base.size)
    monkeypatch.setattr(alg, "atom_relation", lambda a: empty if a == last else real(a))
    assert check_partition(alg) == ["atom union differs from the unit relation"]


def test_involution_names_the_first_pair_where_the_second_law_fails(running_frame, monkeypatch):
    alg = GroupRelationAlgebra(running_frame)
    atoms = alg.atoms()
    a, b = AtomIndex("0", "1", 1), AtomIndex("1", "0", 1)
    real = alg.compose_atoms
    extra = next(t for t in atoms if t not in real(a, b).atoms)

    def wrong(p, q):
        got = real(p, q)
        return alg.element(got.atoms | {extra}) if (p, q) == (a, b) else got

    monkeypatch.setattr(alg, "compose_atoms", wrong)
    # a;b is wrong on the left at (a,b), and on the right at (conv b, conv a)
    assert (alg.converse_atom(b), alg.converse_atom(a)) == (
        AtomIndex("0", "1", 2),
        AtomIndex("1", "0", 2),
    )
    assert check_involution(alg) == [
        "second involution law fails at ((0,1),1),((1,0),1)",
        "second involution law fails at ((0,1),2),((1,0),2)",
    ]


def test_identity_laws_name_the_first_element_they_fail_on(running_frame, monkeypatch):
    alg = GroupRelationAlgebra(running_frame)
    # 1'_0 alone: composing with it drops every atom of the pairs (1,y) or (x,1)
    monkeypatch.setattr(alg, "identity_element", lambda: alg.element([AtomIndex("0", "0", 0)]))
    failures = check_identity_laws(alg)
    assert failures[0] == f"identity law fails on {alg.unit()!r}"
    assert f"identity law fails on {alg.zero()!r}" not in failures
