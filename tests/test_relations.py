"""Tests for the bit-matrix relation oracle, independent of the coset engine."""

import random

import pytest

from groupra.groups import make_cyclic
from groupra.relations import (
    ConcreteRelation,
    cayley_relation,
    identity_on,
    rel_compose,
    rel_converse,
    rel_union,
)


def mod3_cross(k):
    """Z6 rows 0..5, Z9 columns 6..14: pairs (a, 6+b) with b = a+k mod 3."""
    return ConcreteRelation.from_pairs(
        15, ((a, 6 + b) for a in range(6) for b in range(9) if b % 3 == (a + k) % 3)
    )


def random_relation(rng, size):
    pairs = [
        (i, j) for i in range(size) for j in range(size) if rng.random() < 0.3
    ]
    return ConcreteRelation.from_pairs(size, pairs)


def test_from_pairs_roundtrip():
    r = ConcreteRelation.from_pairs(4, [(3, 0), (1, 2), (1, 1)])
    assert r.pairs() == [(1, 1), (1, 2), (3, 0)]
    assert r.count() == 3
    assert (1, 2) in r
    assert (2, 1) not in r
    for outside in ((-1, 0), (0, -1), (4, 0), (0, 4)):
        assert outside not in r
    assert ConcreteRelation.empty(4).pairs() == []


def test_from_pairs_range_check():
    with pytest.raises(ValueError):
        ConcreteRelation.from_pairs(3, [(0, 3)])
    with pytest.raises(ValueError):
        ConcreteRelation.from_pairs(3, [(-1, 0)])


def test_mod3_relations_shape():
    for k in range(3):
        assert mod3_cross(k).count() == 18


def test_converse_swaps_pairs():
    r = mod3_cross(1)
    assert sorted(rel_converse(r).pairs()) == sorted((b, a) for a, b in r.pairs())


def test_compose_mod3():
    # R1 ; converse(R1) relates a to a' exactly when a = a' mod 3.
    r1 = mod3_cross(1)
    got = rel_compose(r1, rel_converse(r1))
    expected = ConcreteRelation.from_pairs(
        15, ((a, b) for a in range(6) for b in range(6) if a % 3 == b % 3)
    )
    assert got == expected


def test_union_rebuilds_rectangle():
    whole = rel_union(rel_union(mod3_cross(0), mod3_cross(1)), mod3_cross(2))
    rect = ConcreteRelation.from_pairs(
        15, ((a, 6 + b) for a in range(6) for b in range(9))
    )
    assert whole == rect


def test_identity_neutral_for_compose():
    r = mod3_cross(2)
    assert rel_compose(identity_on(15), r) == r
    assert rel_compose(r, identity_on(15)) == r


def test_size_mismatch_rejected():
    with pytest.raises(ValueError, match="sizes differ"):
        rel_compose(identity_on(3), identity_on(4))
    with pytest.raises(ValueError, match="sizes differ"):
        rel_union(identity_on(3), identity_on(4))


def test_cayley_relation_basics():
    z6 = make_cyclic(6)
    r0 = cayley_relation(z6, 0)
    assert r0 == identity_on(6)
    r2 = cayley_relation(z6, 2)
    assert r2.pairs() == [(a, (a + 2) % 6) for a in range(6)]


def test_cayley_relations_compose_like_the_group():
    z6 = make_cyclic(6)
    for f in range(6):
        for g in range(6):
            composed = rel_compose(cayley_relation(z6, f), cayley_relation(z6, g))
            assert composed == cayley_relation(z6, z6.mul(f, g))


def test_cayley_relation_with_offset():
    z3 = make_cyclic(3)
    r = cayley_relation(z3, 1, offset=4, size=10)
    assert r.size == 10
    assert r.pairs() == [(4, 5), (5, 6), (6, 4)]


def test_oracle_laws_on_random_relations():
    rng = random.Random(5150)
    size = 7
    for _ in range(40):
        r = random_relation(rng, size)
        s = random_relation(rng, size)
        t = random_relation(rng, size)
        assert rel_converse(rel_converse(r)) == r
        assert rel_converse(rel_compose(r, s)) == rel_compose(
            rel_converse(s), rel_converse(r)
        )
        assert rel_compose(rel_compose(r, s), t) == rel_compose(r, rel_compose(s, t))
        assert rel_compose(r, rel_union(s, t)) == rel_union(
            rel_compose(r, s), rel_compose(r, t)
        )
        assert rel_converse(rel_union(r, s)) == rel_union(
            rel_converse(r), rel_converse(s)
        )


def pair_compose(r, s):
    return {(a, c) for a, b in r for b2, c in s if b == b2}


def test_compose_and_converse_at_high_ids_of_a_large_base():
    size = 600
    shift = {a: 576 + (a - 576 + 5) % 24 for a in range(576, 600)}
    rng = random.Random(600)
    sparse = [
        {(rng.randrange(500, size), rng.randrange(500, size)) for _ in range(300)}
        for _ in range(3)
    ]
    relations = [set(shift.items()), *sparse]
    for r in relations:
        rr = ConcreteRelation.from_pairs(size, r)
        assert set(rel_converse(rr).pairs()) == {(b, a) for a, b in r}
        for s in relations:
            got = rel_compose(rr, ConcreteRelation.from_pairs(size, s))
            assert set(got.pairs()) == pair_compose(r, s)


def test_relation_refuses_the_wrong_row_count():
    # a row outside the base does not hide a wrong row count
    for rows in ((1, 2), (1, 0b1000), (-1,), (0, 0, 0b1000, 0)):
        with pytest.raises(ValueError) as info:
            ConcreteRelation(3, rows)
        assert str(info.value) == f"expected 3 rows, got {len(rows)}"


def test_relation_refuses_a_row_outside_the_base():
    cases = [(3, (1, 0b1000, 4)), (3, (1, -1, 4))]
    cases += [(size, (0,) * (size - 1) + (1 << size,)) for size in (1, 63, 64, 65)]
    for size, rows in cases:
        with pytest.raises(ValueError) as info:
            ConcreteRelation(size, rows)
        assert str(info.value) == "row mask reaches outside the base set"


def test_relation_accepts_rows_up_to_bit_size_minus_one():
    for size in (1, 63, 64, 65):
        r = ConcreteRelation(size, (1 << (size - 1),) + (0,) * (size - 1))
        assert r.pairs() == [(0, size - 1)]
    assert ConcreteRelation(0, ()).pairs() == []


def random_pairs_with_empty_rows(rng, size):
    """Pairs of a random relation on size ids where about a third of the rows are empty."""
    return {
        (a, b)
        for a in range(size)
        if rng.random() >= 1 / 3
        for b in range(size)
        if rng.random() < 0.2
    }


def test_compose_and_converse_match_pair_sets_across_word_boundaries():
    rng = random.Random(6465)
    for size in (0, 1, 63, 64, 65, 130):
        relations = [set(), *(random_pairs_with_empty_rows(rng, size) for _ in range(3))]
        for r in relations:
            rr = ConcreteRelation.from_pairs(size, r)
            assert set(rel_converse(rr).pairs()) == {(b, a) for a, b in r}
            for s in relations:
                got = rel_compose(rr, ConcreteRelation.from_pairs(size, s))
                assert set(got.pairs()) == pair_compose(r, s)
