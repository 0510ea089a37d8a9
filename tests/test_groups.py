"""Tests for the finite group layer: tables, cosets, quotients, iso checks."""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from groupra.errors import (
    GroupTableError,
    IncompatibleQuotientsError,
    InvalidFrameError,
    NotASubgroupError,
    NotNormalError,
)
from groupra.frames import Frame, IsoRecord
from groupra.groups import (
    MAX_GROUP_ORDER,
    CosetSystem,
    FiniteGroup,
    IsoCheck,
    check_group_order,
    check_quotient_iso,
    complex_product,
    elements,
    enumerate_cosets,
    full_mask,
    is_cyclic_table,
    is_normal,
    left_translate,
    make_cyclic,
    mask_of,
    quotient_group,
    subgroup_defect,
    validate_table,
)

KLEIN = [
    [0, 1, 2, 3],
    [1, 0, 3, 2],
    [2, 3, 0, 1],
    [3, 2, 1, 0],
]

# Order-5 loop with two-sided identity and inverses that is not associative.
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def s3():
    """Symmetric group on 3 points; element i is the i-th permutation in sorted order."""
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms
    ]
    return validate_table(table, label="S3")


def test_mask_helpers():
    assert mask_of([0, 3]) == 0b1001
    assert elements(0b1001) == [0, 3]
    assert elements(0) == []
    assert full_mask(4) == 0b1111


def test_make_cyclic():
    g = make_cyclic(6)
    assert g.order == 6
    assert g.label == "Z6"
    for a in range(6):
        for b in range(6):
            assert g.mul(a, b) == (a + b) % 6
        assert g.inv(a) == (-a) % 6
    assert is_cyclic_table(g)
    for n in (1, 2, 60, 1024):
        assert is_cyclic_table(make_cyclic(n)), n
    # Z12 with elements 1 and 2 swapped: cyclic, but not literally Z_12's table
    swap = {1: 2, 2: 1}
    relabel = [swap.get(a, a) for a in range(12)]
    table = [[0] * 12 for _ in range(12)]
    for a in range(12):
        for b in range(12):
            table[relabel[a]][relabel[b]] = relabel[(a + b) % 12]
    assert not is_cyclic_table(validate_table(table, label="Z12?"))


def test_make_cyclic_rejects_nonpositive():
    with pytest.raises(ValueError):
        make_cyclic(0)


def test_one_group_order_check_serves_every_builder():
    for n in (1, MAX_GROUP_ORDER):
        check_group_order(n)
    for n, message in (
        (0, "group order must be positive, got 0"),
        (-3, "group order must be positive, got -3"),
        (MAX_GROUP_ORDER + 1, f"group order {MAX_GROUP_ORDER + 1} exceeds the cap"),
    ):
        with pytest.raises(GroupTableError, match=message):
            check_group_order(n)
    with pytest.raises(GroupTableError) as cyclic:
        make_cyclic(0)
    assert str(cyclic.value) == "group order must be positive, got 0"


def test_group_orders_are_capped():
    # well above the largest order of any test, shipped frame or benchmark (120)
    assert MAX_GROUP_ORDER >= 1000
    assert make_cyclic(MAX_GROUP_ORDER).order == MAX_GROUP_ORDER
    over = MAX_GROUP_ORDER + 1
    message = f"group order {over} exceeds the cap of {MAX_GROUP_ORDER}"
    with pytest.raises(GroupTableError, match=message):
        make_cyclic(over)
    # refused on the row count, before any row is read
    with pytest.raises(GroupTableError, match=message):
        validate_table([[0]] * over)


def test_validate_klein_table():
    g = validate_table(KLEIN, label="V4")
    assert g.order == 4
    for a in range(4):
        assert g.inv(a) == a
    assert not is_cyclic_table(g)


def test_validate_renumbers_identity():
    # Z3 with the identity sitting at position 2.
    relabel = {0: 2, 1: 0, 2: 1}
    table = [[0] * 3 for _ in range(3)]
    for a in range(3):
        for b in range(3):
            table[relabel[a]][relabel[b]] = relabel[(a + b) % 3]
    g = validate_table(table, label="Z3?")
    assert g.mul(0, 0) == 0
    for a in range(3):
        for b in range(3):
            for c in range(3):
                assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))
    assert is_cyclic_table(g)


def test_validate_reports_shape():
    with pytest.raises(GroupTableError, match="row 1 has 1 entries"):
        validate_table([[0, 1], [0]])


def test_validate_reports_range():
    with pytest.raises(GroupTableError, match="out of range"):
        validate_table([[0, 2], [1, 0]])


def test_validate_reports_missing_identity():
    with pytest.raises(GroupTableError, match="no two-sided identity"):
        validate_table([[1, 1], [1, 1]])


def test_validate_reports_non_associative():
    with pytest.raises(GroupTableError, match=r"not associative at \(1,1,2\)"):
        validate_table(LOOP5)


def test_validate_reports_missing_inverse():
    # min(a, b) on the chain 0 < 1 < 2 is an associative monoid whose
    # identity is the top element; nothing else has an inverse.
    table = [[0, 0, 0], [0, 1, 1], [0, 1, 2]]
    with pytest.raises(GroupTableError, match="no two-sided inverse"):
        validate_table(table)


def test_empty_table_rejected():
    with pytest.raises(GroupTableError):
        validate_table([])


def test_subgroup_defect():
    z6 = make_cyclic(6)
    assert subgroup_defect(z6, mask_of([0, 3])) is None
    assert subgroup_defect(z6, mask_of([0, 2, 4])) is None
    assert subgroup_defect(z6, 0) == "subset does not contain the identity"
    assert subgroup_defect(z6, mask_of([1, 4])) == "subset does not contain the identity"
    assert subgroup_defect(z6, mask_of([0, 6])) == (
        "subset [0, 6] contains indices outside the group"
    )
    assert subgroup_defect(z6, mask_of([0, 1])) == "inverse of 1 is 5, which is missing"
    assert subgroup_defect(z6, mask_of([0, 1, 5])) == (
        "product 1*1 = 2 falls outside the subset"
    )


@pytest.mark.parametrize("mask", [-1, -2, -3, -(1 << 70)])
def test_negative_masks_are_refused_at_once(mask):
    # a negative mask has infinitely many set bits: no walk over its elements ends
    z4 = make_cyclic(4, "Z4")
    refusal = f"^{mask} is not a subgroup of Z4: mask {mask} is negative$"
    assert subgroup_defect(z4, mask) == f"mask {mask} is negative"
    for call in (
        lambda: enumerate_cosets(z4, mask),
        lambda: is_normal(z4, mask),
        lambda: quotient_group(z4, mask),
        lambda: check_quotient_iso(z4, mask, z4, 1, [0, 1, 2, 3]),
        lambda: check_quotient_iso(z4, 1, z4, mask, [0, 1, 2, 3]),
    ):
        with pytest.raises(NotASubgroupError, match=refusal):
            call()
    assert mask not in z4._cosets


def test_is_normal():
    z6 = make_cyclic(6)
    assert is_normal(z6, mask_of([0, 3]))
    assert is_normal(z6, full_mask(6))
    with pytest.raises(NotASubgroupError, match="is not a subgroup"):
        is_normal(z6, mask_of([0, 1]))
    g = s3()
    assert is_normal(g, mask_of([0, 3, 4]))  # the three rotations
    assert not is_normal(g, mask_of([0, 1]))  # identity plus one transposition


def test_enumerate_cosets_canonical_order():
    z6 = make_cyclic(6)
    system = enumerate_cosets(z6, mask_of([0, 3]))
    assert [elements(c) for c in system.cosets] == [[0, 3], [1, 4], [2, 5]]
    z9 = make_cyclic(9)
    system = enumerate_cosets(z9, mask_of([0, 3, 6]))
    assert [elements(c) for c in system.cosets] == [[0, 3, 6], [1, 4, 7], [2, 5, 8]]


def test_enumerate_cosets_trivial_subgroup():
    z3 = make_cyclic(3)
    system = enumerate_cosets(z3, 1)
    assert system.count == 3
    assert [elements(c) for c in system.cosets] == [[0], [1], [2]]


def test_enumerate_cosets_requires_normal():
    with pytest.raises(NotNormalError):
        enumerate_cosets(s3(), mask_of([0, 1]))


def test_enumerate_cosets_keeps_each_system_on_its_group(monkeypatch):
    import groupra.groups

    proofs = []
    real = groupra.groups._subgroup_generators
    monkeypatch.setattr(
        groupra.groups,
        "_subgroup_generators",
        lambda g, h: proofs.append(h) or real(g, h),
    )
    z6 = make_cyclic(6)
    first = enumerate_cosets(z6, mask_of([0, 3]))
    assert enumerate_cosets(z6, mask_of([0, 3])) is first
    assert is_normal(z6, mask_of([0, 3]))
    assert quotient_group(z6, mask_of([0, 3])).order == 3
    assert len(proofs) == 1
    # an equal group built apart keeps its own systems
    assert enumerate_cosets(make_cyclic(6), mask_of([0, 3])) == first
    assert len(proofs) == 2


def test_enumerate_cosets_proves_a_refused_subset_on_every_call(monkeypatch):
    import groupra.groups

    proofs = []
    real = groupra.groups._subgroup_generators
    monkeypatch.setattr(
        groupra.groups,
        "_subgroup_generators",
        lambda g, h: proofs.append(h) or real(g, h),
    )
    g = s3()
    refused = {mask_of([0, 1]): NotNormalError, mask_of([0, 1, 3]): NotASubgroupError}
    for subset, error in refused.items():
        texts = []
        for _ in range(2):
            with pytest.raises(error) as info:
                enumerate_cosets(g, subset)
            texts.append(str(info.value))
        assert texts[0] == texts[1], texts
    assert len(proofs) == 4


def test_coset_system_lookup():
    z6 = make_cyclic(6)
    system = enumerate_cosets(z6, mask_of([0, 3]))
    for e in range(6):
        assert system.coset_of(e) == e % 3
    assert system.cosets[system.coset_of(2)] == mask_of([2, 5])
    with pytest.raises(ValueError, match="lies in no coset"):
        system.coset_of(6)


def test_coset_system_validates_shape():
    with pytest.raises(ValueError, match="pairwise disjoint"):
        CosetSystem(mask_of([0, 1]), (mask_of([0, 1]), mask_of([1, 2])))
    with pytest.raises(ValueError, match="coset 0 must be the subgroup"):
        CosetSystem(mask_of([0, 1]), (mask_of([2, 3]), mask_of([0, 1])))


def test_complex_product_values():
    z6 = make_cyclic(6)
    h1 = mask_of([1, 4])
    assert complex_product(z6, h1, h1) == mask_of([2, 5])
    assert complex_product(z6, mask_of([0, 3]), h1) == h1
    assert complex_product(z6, 0, h1) == 0
    z9 = make_cyclic(9)
    assert complex_product(z9, mask_of([2, 5, 8]), mask_of([1, 4, 7])) == mask_of([0, 3, 6])


def test_translates():
    z6 = make_cyclic(6)
    h = mask_of([0, 3])
    assert left_translate(z6, 2, h) == mask_of([2, 5])
    assert complex_product(z6, h, 1 << 2) == mask_of([2, 5])
    g = s3()
    a = mask_of([0, 1])
    # S3 is nonabelian, so some left and right translates differ.
    assert any(
        left_translate(g, x, a) != complex_product(g, a, 1 << x) for x in range(6)
    )


@given(st.integers(min_value=1, max_value=10), st.data())
def test_complex_product_associative(n, data):
    g = make_cyclic(n)
    top = full_mask(n)
    a = data.draw(st.integers(min_value=0, max_value=top))
    b = data.draw(st.integers(min_value=0, max_value=top))
    c = data.draw(st.integers(min_value=0, max_value=top))
    left = complex_product(g, complex_product(g, a, b), c)
    right = complex_product(g, a, complex_product(g, b, c))
    assert left == right


def test_quotient_group_z6():
    z6 = make_cyclic(6)
    q = quotient_group(z6, mask_of([0, 3]))
    assert q.order == 3
    assert q.op == make_cyclic(3).op
    assert q.label == "Z6/{0,3}"


def test_quotient_group_extremes():
    z6 = make_cyclic(6)
    assert quotient_group(z6, 1).op == z6.op
    assert quotient_group(z6, full_mask(6)).order == 1


def test_quotient_group_s3_by_rotations():
    g = s3()
    q = quotient_group(g, mask_of([0, 3, 4]))
    assert q.order == 2
    assert q.op == ((0, 1), (1, 0))


def perm_table(*gens):
    """Cayley table of the group generated by permutation tuples, identity first."""
    elems = [tuple(range(len(gens[0])))]
    index = {elems[0]: 0}
    for p in elems:
        for s in gens:
            q = tuple(p[i] for i in s)
            if q not in index:
                index[q] = len(elems)
                elems.append(q)
    return [[index[tuple(p[i] for i in q)] for q in elems] for p in elems]


def perm_group(label, *gens):
    """The group generated by permutation tuples, identity first."""
    return validate_table(perm_table(*gens), label)


def closure(g, a, b):
    sub = {0, a, b}
    while True:
        more = {g.mul(x, y) for x in sub for y in sub} - sub
        if not more:
            return mask_of(sub)
        sub |= more


@pytest.mark.parametrize(
    "label, gens, order, subgroup_count, normal_count",
    [
        ("S3", [(1, 0, 2), (1, 2, 0)], 6, 6, 3),
        ("D4", [(1, 2, 3, 0), (0, 3, 2, 1)], 8, 10, 6),
        ("Q8", [(1, 2, 3, 0, 5, 6, 7, 4), (4, 7, 6, 5, 2, 1, 0, 3)], 8, 6, 6),
        ("A4", [(1, 2, 0, 3), (1, 0, 3, 2)], 12, 10, 3),
    ],
)
def test_quotient_group_is_a_group(label, gens, order, subgroup_count, normal_count):
    g = perm_group(label, *gens)
    assert g.order == order
    subgroups = {closure(g, a, b) for a in g.elements() for b in g.elements()}
    assert len(subgroups) == subgroup_count
    normal = [n for n in subgroups if is_normal(g, n)]
    assert len(normal) == normal_count
    for n in normal:
        q = quotient_group(g, n)
        assert q.order * n.bit_count() == order
        assert q == validate_table(q.op)


def test_check_quotient_iso_identity_map():
    z6, z9 = make_cyclic(6), make_cyclic(9)
    result = check_quotient_iso(z6, mask_of([0, 3]), z9, mask_of([0, 3, 6]), (0, 1, 2))
    assert result.ok
    assert result.witness is None


def test_check_quotient_iso_accepts_automorphism():
    # gamma -> 2*gamma is a genuine automorphism of the 3-element quotient.
    z6, z9 = make_cyclic(6), make_cyclic(9)
    result = check_quotient_iso(z6, mask_of([0, 3]), z9, mask_of([0, 3, 6]), (0, 2, 1))
    assert result.ok


def test_check_quotient_iso_witnesses():
    z6, z9 = make_cyclic(6), make_cyclic(9)
    h = mask_of([0, 3])
    k = mask_of([0, 3, 6])
    result = check_quotient_iso(z6, h, z9, k, (0, 2, 2))
    assert not result.ok
    assert result.witness == "not injective"
    result = check_quotient_iso(z6, h, z9, k, (1, 0, 2))
    assert not result.ok
    assert result.witness == "identity coset maps to 1, not 0"
    result = check_quotient_iso(z6, h, z9, k, (0, 1))
    assert result.witness == "map has 2 entries, expected 3"
    result = check_quotient_iso(z6, h, z9, k, (0, 1, 7))
    assert result.witness == "map entry out of range"


def test_check_quotient_iso_non_homomorphic():
    z4 = make_cyclic(4)
    result = check_quotient_iso(z4, 1, z4, 1, (0, 2, 1, 3))
    assert not result.ok
    assert result.witness == "not homomorphic at cosets (1,1)"


def test_check_quotient_iso_size_mismatch():
    z6, z9 = make_cyclic(6), make_cyclic(9)
    with pytest.raises(IncompatibleQuotientsError, match="3 vs 9"):
        check_quotient_iso(z6, mask_of([0, 3]), z9, 1, (0, 1, 2))


# Generators of permutation groups for the table-validation tests.
PERM_GENERATORS = {
    "S3": [(1, 0, 2), (1, 2, 0)],
    "D4": [(1, 2, 3, 0), (0, 3, 2, 1)],
    "Q8": [(1, 2, 3, 0, 5, 6, 7, 4), (4, 7, 6, 5, 2, 1, 0, 3)],
    "A4": [(1, 2, 0, 3), (1, 0, 3, 2)],
    "D60": [tuple((i + 1) % 60 for i in range(60)), tuple(-i % 60 for i in range(60))],
}


def first_assoc_fault(t):
    """First (i, j, k) in lexicographic order with (i*j)*k != i*(j*k), by an O(n^3) scan."""
    n = len(t)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if t[t[i][j]][k] != t[i][t[j][k]]:
                    return i, j, k
    return None


def reference_validate(table):
    """What validate_table gives, found by the plain O(n^3) method.

    The FiniteGroup, or the text of the GroupTableError, for a square table
    with entries in range.
    """
    n = len(table)
    ident = [e for e in range(n) if all(table[e][i] == i == table[i][e] for i in range(n))]
    if not ident:
        return "no two-sided identity element"
    p = list(range(n))
    p[0], p[ident[0]] = ident[0], 0
    t = [[p[table[p[i]][p[j]]] for j in range(n)] for i in range(n)]
    fault = first_assoc_fault(t)
    if fault is not None:
        i, j, k = fault
        return (
            f"not associative at ({i},{j},{k}): ({i}*{j})*{k} = {t[t[i][j]][k]} "
            f"but {i}*({j}*{k}) = {t[i][t[j][k]]}"
        )
    inverse = []
    for i in range(n):
        found = [j for j in range(n) if t[i][j] == 0 == t[j][i]]
        if not found:
            return f"element {i} has no two-sided inverse"
        inverse.append(found[0])
    return FiniteGroup(n, tuple(map(tuple, t)), tuple(inverse))


def validate_outcome(table):
    try:
        return validate_table(table)
    except GroupTableError as exc:
        return str(exc)


def random_loop(rng, n):
    """A random Latin square with identity 0, filled row by row (restarting at dead ends)."""
    while True:
        t = [list(range(n))] + [[i] + [0] * (n - 1) for i in range(1, n)]
        try:
            for i in range(1, n):
                for j in range(1, n):
                    used = set(t[i][:j]) | {t[r][j] for r in range(i)}
                    t[i][j] = rng.choice([v for v in range(n) if v not in used])
        except IndexError:
            continue
        return t


def relabel(table, p):
    """The same operation with element a renamed p[a]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[p[a]][p[b]] = p[table[a][b]]
    return out


def test_validate_table_agrees_with_full_scan_on_random_loops():
    rng = random.Random(11)
    verdicts = set()
    for n in range(3, 8):
        for _ in range(60):
            table = random_loop(rng, n)
            expected = reference_validate(table)
            verdicts.add(isinstance(expected, FiniteGroup))
            assert validate_outcome(table) == expected
    assert verdicts == {True, False}


@pytest.mark.parametrize("label", sorted(PERM_GENERATORS))
def test_validate_table_with_identity_elsewhere(label):
    table = perm_table(*PERM_GENERATORS[label])
    rng = random.Random(label)
    p = list(range(len(table)))
    while p[0] == 0:
        rng.shuffle(p)
    moved = relabel(table, p)
    group = validate_table(moved, label)
    assert group == reference_validate(moved)
    assert group.label == label


@pytest.mark.parametrize("label", ["S3", "D4"])
def test_single_entry_corruptions_name_the_first_fault(label):
    table = perm_table(*PERM_GENERATORS[label])
    n = len(table)
    for i, j, v in itertools.product(range(n), repeat=3):
        if v != table[i][j]:
            bad = [row[:] for row in table]
            bad[i][j] = v
            expected = reference_validate(bad)
            assert isinstance(expected, str)
            assert validate_outcome(bad) == expected


ELEMENTARY_8 = perm_table((1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5), (0, 1, 2, 3, 5, 4))


@pytest.mark.parametrize(
    "table",
    [perm_table(*gens) for gens in PERM_GENERATORS.values()]
    + [KLEIN, make_cyclic(60).op, ELEMENTARY_8],
    ids=[*PERM_GENERATORS, "V4", "Z60", "Z2^3"],
)
def test_validate_table_checks_at_most_log2_middles(monkeypatch, table):
    import groupra.groups

    real = groupra.groups._assoc_fault
    checked = []

    def counting(rows, middles):
        checked.append(list(middles))
        return real(rows, middles)

    monkeypatch.setattr(groupra.groups, "_assoc_fault", counting)
    n = len(table)
    p = list(range(n))
    p[0], p[-1] = p[-1], p[0]
    for t in (table, relabel(table, p)):
        checked.clear()
        validate_table(t)
        assert len(checked) == 1
        assert len(checked[0]) <= n.bit_length() - 1


ISO_CORPUS_GROUPS = {
    **{label: PERM_GENERATORS[label] for label in ("S3", "D4", "Q8", "A4")},
    "Z6": [(1, 2, 3, 4, 5, 0)],
}


def quotient_iso_corpus():
    """Every ordered pair of normal subgroups of S3, D4, Q8, A4 and Z6, with maps.

    Yields (gx, h, gy, k, qx, qy, maps), with qx and qy the quotient groups.
    When the quotients have equal order the maps are one of the wrong length,
    a non-injective one and, with at most 6 cosets, every bijection; when
    their orders differ, the identity map of qx alone.
    """
    normals = []
    for label, gens in ISO_CORPUS_GROUPS.items():
        g = perm_group(label, *gens)
        subgroups = {closure(g, a, b) for a in g.elements() for b in g.elements()}
        normals += [(g, n) for n in sorted(subgroups) if is_normal(g, n)]
    for (gx, h), (gy, k) in itertools.product(normals, repeat=2):
        qx, qy = quotient_group(gx, h), quotient_group(gy, k)
        n = qx.order
        if n != qy.order:
            maps = [list(range(n))]
        else:
            maps = [list(range(n + 1))] + [[0] * n] * (n > 1)
            if n <= 6:
                maps += map(list, itertools.permutations(range(n)))
        yield gx, h, gy, k, qx, qy, maps


def reference_iso_witness(qx, qy, mapping):
    """Why mapping is not an isomorphism qx -> qy, from their tables; None if it is."""
    n = qx.order
    if len(mapping) != n:
        return f"map has {len(mapping)} entries, expected {n}"
    if any(not 0 <= v < n for v in mapping):
        return "map entry out of range"
    if len(set(mapping)) != n:
        return "not injective"
    if mapping[0] != 0:
        return f"identity coset maps to {mapping[0]}, not 0"
    for a, b in itertools.product(range(n), repeat=2):
        if mapping[qx.mul(a, b)] != qy.mul(mapping[a], mapping[b]):
            return f"not homomorphic at cosets ({a},{b})"
    return None


def test_check_quotient_iso_matches_quotient_tables():
    verdicts = 0
    for gx, h, gy, k, qx, qy, maps in quotient_iso_corpus():
        for mapping in maps:
            verdicts += 1
            if qx.order != qy.order:
                expected = f"quotient orders differ: {qx.order} vs {qy.order}"
                with pytest.raises(IncompatibleQuotientsError, match=expected):
                    check_quotient_iso(gx, h, gy, k, mapping)
                continue
            witness = reference_iso_witness(qx, qy, mapping)
            assert check_quotient_iso(gx, h, gy, k, mapping) == IsoCheck(witness is None, witness)
    assert verdicts == 3718


def test_permuted_system_equals_the_validated_constructor():
    """Every bijection fixing 0 of every quotient of the corpus with at most 6 cosets."""
    systems = 0
    seen = set()
    for _, _, gy, k, _, qy, _ in quotient_iso_corpus():
        if (id(gy), k) in seen or qy.order > 6:
            continue
        seen.add((id(gy), k))
        ks = enumerate_cosets(gy, k)
        for rest in itertools.permutations(range(1, ks.count)):
            mapping = (0, *rest)
            built = CosetSystem(k, tuple(ks.cosets[i] for i in mapping))
            image = ks.permuted(mapping)
            assert image == built
            assert (image.cosets, image.reps, image._where) == (
                built.cosets,
                built.reps,
                built._where,
            )
            assert [image.coset_of(e) for e in gy.elements()] == [
                built.coset_of(e) for e in gy.elements()
            ]
            for e in (-1, -gy.order, gy.order, gy.order + 1):
                refusal = f"^element {e} lies in no coset of this system$"
                with pytest.raises(ValueError, match=refusal):
                    image.coset_of(e)
            systems += 1
    assert systems == 269


def test_permuted_partial_system_keeps_its_holes():
    # the cosets {0,3} and {1,4} of Z6, without {2,5}: 2 lies in no coset
    partial = CosetSystem(mask_of([0, 3]), (mask_of([0, 3]), mask_of([1, 4])))
    image = partial.permuted([0, 1])
    assert image._where == partial._where == [0, 1, -1, 0, 1]
    with pytest.raises(ValueError, match="^element 2 lies in no coset of this system$"):
        image.coset_of(2)


def test_relabelled_group_shares_its_proofs():
    g = validate_table(KLEIN, label="Ta")
    system = enumerate_cosets(g, mask_of([0, 1]))
    copy = g.relabelled("Tb")
    assert (copy.label, g.label) == ("Tb", "Ta")
    assert copy == g and copy.op is g.op and copy.inverse is g.inverse
    assert copy._cosets is g._cosets
    assert copy._generating_set is g._generating_set
    assert enumerate_cosets(copy, mask_of([0, 1])) is system
    # a new proof on either is kept for both; a failed one names its own label
    assert enumerate_cosets(copy, mask_of([0, 2])) is enumerate_cosets(g, mask_of([0, 2]))
    with pytest.raises(NotASubgroupError, match="is not a subgroup of Tb:"):
        enumerate_cosets(copy, mask_of([0, 1, 2]))
    with pytest.raises(NotASubgroupError, match="is not a subgroup of Ta:"):
        enumerate_cosets(g, mask_of([0, 1, 2]))


def test_validate_table_keeps_the_generators_of_its_proof(monkeypatch):
    import groupra.groups

    picks = []
    real = groupra.groups._generators
    monkeypatch.setattr(
        groupra.groups, "_generators", lambda op, mask: picks.append(mask) or real(op, mask)
    )
    table = [[(a + b) % 3 + 3 * ((a // 3 + b // 3) % 2) for b in range(6)] for a in range(6)]
    g = validate_table(table)
    assert picks == [full_mask(6)]
    assert g._generating_set == real(g.op, full_mask(6)) == [1, 3]
    assert picks == [full_mask(6)]


def test_frame_accepts_exactly_the_quotient_isos():
    """Each bijection fixing coset 0, as an image-order record of a two-group frame."""
    accepted = rejected = 0
    for gx, h, gy, k, qx, qy, maps in quotient_iso_corpus():
        if qx.order != qy.order:
            continue
        hs, ks = enumerate_cosets(gx, h), enumerate_cosets(gy, k)
        for mapping in maps:
            if len(mapping) != qx.order or len(set(mapping)) != qx.order or mapping[0] != 0:
                continue
            image = CosetSystem(k, tuple(ks.cosets[i] for i in mapping))
            isos = {("x", "y"): IsoRecord("x", "y", hs, image)}
            witness = reference_iso_witness(qx, qy, mapping)
            if witness is None:
                Frame({"x": gx, "y": gy}, [["x", "y"]], isos)
                accepted += 1
                continue
            with pytest.raises(InvalidFrameError) as info:
                Frame({"x": gx, "y": gy}, [["x", "y"]], isos)
            assert (info.value.pair, info.value.witness) == (("x", "y"), witness)
            rejected += 1
    assert (accepted, rejected) == (129, 472)


def test_finite_group_checks_the_inverse_table_length():
    with pytest.raises(GroupTableError, match="inverse table has 1 entries, expected 2"):
        FiniteGroup(2, ((0, 1), (1, 0)), (0,))
    with pytest.raises(GroupTableError, match="inverse table has 3 entries, expected 2"):
        FiniteGroup(2, ((0, 1), (1, 0)), (0, 1, 0))
    assert FiniteGroup(2, ((0, 1), (1, 0)), (0, 1)).inv(1) == 1


def reference_subgroup_defect(g, h):
    """subgroup_defect's verdict and witness, by the plain scan over every pair."""
    if h >> g.order:
        return f"subset {elements(h)} contains indices outside the group"
    if not h & 1:
        return "subset does not contain the identity"
    elems = elements(h)
    for a in elems:
        if not h >> g.inv(a) & 1:
            return f"inverse of {a} is {g.inv(a)}, which is missing"
        row = g.op[a]
        for b in elems:
            if not h >> row[b] & 1:
                return f"product {a}*{b} = {row[b]} falls outside the subset"
    return None


def generated(g, gens):
    """The subgroup generated by gens: every right word from the identity."""
    seen, todo = {0}, [0]
    while todo:
        x = todo.pop()
        for s in gens:
            y = g.mul(x, s)
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return mask_of(seen)


def normal_subgroups(g):
    """Every normal subgroup: the joins of the normal closures of single elements."""
    classes = {
        frozenset(g.mul(g.mul(c, a), g.inv(c)) for c in g.elements()) for a in g.elements()
    }
    found = {generated(g, cls) for cls in classes}
    while True:
        joins = {generated(g, elements(a | b)) for a in found for b in found if a < b}
        if joins <= found:
            return sorted(found)
        found |= joins


def cosets_outcome(g, h):
    """enumerate_cosets' cosets, or the type and message of what it raised."""
    try:
        return CosetSystem, enumerate_cosets(g, h).cosets
    except (NotASubgroupError, NotNormalError) as exc:
        return type(exc), str(exc)


def reference_cosets_outcome(g, h):
    """The same outcome by the definition: h is normal iff aH = Ha for every a."""
    defect = reference_subgroup_defect(g, h)
    if defect is not None:
        return NotASubgroupError, f"{elements(h)} is not a subgroup of {g.label}: {defect}"
    elems = elements(h)
    left = [mask_of(g.mul(a, x) for x in elems) for a in g.elements()]
    if any(left[a] != mask_of(g.mul(x, a) for x in elems) for a in g.elements()):
        return NotNormalError, f"{elements(h)} is not normal in {g.label}"
    # h first, then ascending by least element
    return CosetSystem, tuple(sorted(set(left), key=lambda c: (c != h, c & -c)))


def test_subgroup_defect_matches_the_pair_scan():
    checked = 0
    references = {}

    def check(g, h):
        key = (g.label, h)
        assert subgroup_defect(g, h) == reference_subgroup_defect(g, h), key
        if key not in references:  # subsets repeat, and the definition is slow on D60
            references[key] = reference_cosets_outcome(g, h)
        assert cosets_outcome(g, h) == references[key], key

    for label in ("S3", "D4", "Q8"):
        g = perm_group(label, *PERM_GENERATORS[label])
        for rest in range(1 << (g.order - 1)):
            check(g, rest << 1 | 1)
            checked += 1
    # D60 with its labels 1..119 reversed: some non-normal subgroups there have
    # the central r^30 as their least element, so a normality proof that left
    # out a generator of h would pass them
    d60 = perm_group("D60", *PERM_GENERATORS["D60"])
    reversed_d60 = validate_table(relabel(d60.op, [0, *range(119, 0, -1)]), "D60r")
    rng = random.Random(20261018)
    for g in (perm_group("A4", *PERM_GENERATORS["A4"]), d60, reversed_d60):
        for i in range(2000):
            # a random subset, a subgroup, or a subgroup with one element toggled
            kind = i % 3
            if kind == 0:
                h = rng.getrandbits(g.order) | 1
            else:
                h = generated(g, rng.sample(range(g.order), rng.randint(1, 2)))
                if kind == 2:
                    h ^= 1 << rng.randrange(1, g.order)
            check(g, h)
            checked += 1
    assert checked == 32 + 128 + 128 + 6000
    assert {kind for kind, _ in references.values()} == {
        CosetSystem,
        NotASubgroupError,
        NotNormalError,
    }


def test_enumerating_normal_cosets_never_runs_the_pair_scan(monkeypatch):
    import groupra.groups

    real = groupra.groups._closure_witness
    scans = []

    def counting(g, h):
        scans.append(h)
        return real(g, h)

    monkeypatch.setattr(groupra.groups, "_closure_witness", counting)
    enumerated = 0
    for label in ("S3", "D4", "Q8", "A4", "D60"):
        g = perm_group(label, *PERM_GENERATORS[label])
        for n in normal_subgroups(g):
            assert enumerate_cosets(g, n).count * n.bit_count() == g.order
            enumerated += 1
    assert scans == []
    assert enumerated == 3 + 6 + 6 + 3 + 15
    # the scan does run, to name the witness, on a subset that is no subgroup
    assert subgroup_defect(make_cyclic(6), mask_of([0, 1, 5])) is not None
    assert len(scans) == 1


def test_coset_of_refuses_elements_outside_the_table():
    z6 = make_cyclic(6)
    system = enumerate_cosets(z6, mask_of([0, 3]))
    # a partial system: the cosets {0,3} and {1,4} of Z6, without {2,5}
    partial = CosetSystem(mask_of([0, 3]), (mask_of([0, 3]), mask_of([1, 4])))
    for table, e in [(system, -1), (system, 6), (partial, 2), (partial, 5), (partial, -1)]:
        with pytest.raises(ValueError, match=f"^element {e} lies in no coset of this system$"):
            table.coset_of(e)
    assert [partial.coset_of(e) for e in (0, 1, 3, 4)] == [0, 1, 0, 1]


def test_make_cyclic_is_addition_mod_n():
    for n in [*range(1, 65), 1024]:
        g = make_cyclic(n)
        op = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
        assert (g.op, g.inverse, g.label) == (op, tuple((-a) % n for a in range(n)), f"Z{n}")
        assert all(type(row) is tuple for row in g.op)
    assert make_cyclic(6, "C6").label == "C6"


def z3_times_z2():
    """Z6 numbered as (a, b) in Z3 x Z2 -> a + 3b, so its greedy generators are 1 and 3."""

    def add(x, y):
        return (x + y) % 3 + 3 * ((x // 3 + y // 3) % 2)

    return validate_table([[add(x, y) for y in range(6)] for x in range(6)], "Z6")


def center(g):
    return mask_of(a for a in g.elements() if all(g.mul(a, b) == g.mul(b, a) for b in g.elements()))


def agreement_quotients():
    """Quotients with at least two generators, by order: V4 three ways, S3 two and Z6."""
    d4 = perm_group("D4", *PERM_GENERATORS["D4"])
    q8 = perm_group("Q8", *PERM_GENERATORS["Q8"])
    s4 = perm_group("S4", (1, 2, 3, 0), (1, 0, 2, 3))
    (v4_in_s4,) = [n for n in normal_subgroups(s4) if n.bit_count() == 4]
    return {
        4: [(validate_table(KLEIN, "V4"), 1), (d4, center(d4)), (q8, center(q8))],
        6: [(s3(), 1), (s4, v4_in_s4), (z3_times_z2(), 1)],
    }


def reference_defect(gx, h, gy, k, mapping):
    """check_quotient_iso's witness for a bijection fixing 0, by a scan over all kappa^2 pairs."""
    hs, ks = enumerate_cosets(gx, h).cosets, enumerate_cosets(gy, k).cosets
    image = [ks[i] for i in mapping]

    def rep(coset):
        return (coset & -coset).bit_length() - 1

    def pos(cosets, e):
        return next(i for i, c in enumerate(cosets) if c >> e & 1)

    for a, b in itertools.product(range(len(hs)), repeat=2):
        left = pos(hs, gx.mul(rep(hs[a]), rep(hs[b])))
        right = pos(image, gy.mul(rep(image[a]), rep(image[b])))
        if left != right:
            return f"not homomorphic at cosets ({a},{b})"
    return None


def iso_frame_text(gx, h, gy, k, mapping):
    """A two-group frame file for the map, and the line number of its ``map`` line."""

    def declare(gid, g):
        if is_cyclic_table(g):
            return [f"group {gid} cyclic {g.order}"]
        return [f"group {gid} table {g.order}", *(" ".join(map(str, row)) for row in g.op)]

    hs, ks = enumerate_cosets(gx, h), enumerate_cosets(gy, k)
    lines = [*declare("x", gx), *declare("y", gy), "block x y", "iso x y"]
    lines.append("H " + " ".join(map(str, elements(h))))
    lines.append("K " + " ".join(map(str, elements(k))))
    lines.append("map " + " ".join(f"{r}:{ks.reps[m]}" for r, m in zip(hs.reps, mapping)))
    return "\n".join([*lines, "end"]) + "\n", len(lines)


def test_quotient_iso_proof_on_generators_agrees_with_the_full_scan():
    from groupra.errors import FrameFormatError
    from groupra.fileformat import parse_frame

    cases = []
    for order, quotients in agreement_quotients().items():
        for (gx, h), (gy, k) in itertools.product(quotients, repeat=2):
            assert len(gx._generating_set) >= 2
            assert enumerate_cosets(gx, h).count == enumerate_cosets(gy, k).count == order
            for rest in itertools.permutations(range(1, order)):
                cases.append((gx, h, gy, k, [0, *rest]))
    z24, z2 = make_cyclic(24), mask_of([0, 12])
    rng = random.Random(5)
    for mapping in [[u * j % 12 for j in range(12)] for u in (1, 5, 7, 11)] + [
        [0, *rng.sample(range(1, 12), 11)] for _ in range(2000)
    ]:
        cases.append((z24, z2, z24, z2, mapping))

    verdicts = []
    for gx, h, gy, k, mapping in cases:
        witness = reference_defect(gx, h, gy, k, mapping)
        verdicts.append(witness is None)
        assert check_quotient_iso(gx, h, gy, k, mapping) == IsoCheck(witness is None, witness)
        text, map_line = iso_frame_text(gx, h, gy, k, mapping)
        if witness is None:
            parse_frame(text)
            continue
        with pytest.raises(FrameFormatError) as info:
            parse_frame(text)
        assert (info.value.line, info.value.reason) == (
            map_line,
            f"map is not a quotient isomorphism: {witness}",
        )
    # V4: all 6 bijections on each of 9 pairs; S3 and S4/V4: the 6 automorphisms
    # of S3 on each of 4 pairs; Z6: its 2 automorphisms; Z24/Z2: the 4 units
    assert (verdicts.count(True), verdicts.count(False)) == (54 + 24 + 2 + 4, 1080 - 26 + 2000)


class CountingRow(tuple):
    """A table row that counts the entries read from it into a shared list."""

    def __new__(cls, row, reads):
        self = super().__new__(cls, row)
        self.reads = reads
        return self

    def __getitem__(self, i):
        self.reads[0] += 1
        return tuple.__getitem__(self, i)


def test_homomorphism_defect_reads_kappa_entries_per_generator():
    from groupra.groups import homomorphism_defect

    z = make_cyclic(1024)
    reads_x, reads_y = [0], [0]
    gx = FiniteGroup(z.order, tuple(CountingRow(r, reads_x) for r in z.op), z.inverse, "Z1024")
    gy = FiniteGroup(z.order, tuple(CountingRow(r, reads_y) for r in z.op), z.inverse, "Z1024")
    hs, ks = enumerate_cosets(gx, 1), enumerate_cosets(gy, 1)
    image = CosetSystem(1, tuple(ks.cosets[5 * j % 1024] for j in range(1024)))
    gens = gx._generating_set
    assert gens == [1]
    reads_x[0] = reads_y[0] = 0
    assert homomorphism_defect(gx, hs, gy, image) is None
    # a scan over every pair of cosets reads 1024^2 = 1,048,576 entries a side
    assert reads_x[0] <= hs.count * len(gens)
    assert reads_y[0] <= hs.count * len(gens)


def test_finite_group_refuses_a_table_that_is_not_square():
    with pytest.raises(GroupTableError) as info:
        FiniteGroup(2, ((0, 1), (1,)), (0, 1))
    assert str(info.value) == "operation table is not 2x2"
    with pytest.raises(GroupTableError) as info:
        FiniteGroup(2, ((0, 1),), (0, 1))
    assert str(info.value) == "operation table is not 2x2"


def test_finite_group_refuses_an_identity_that_is_not_two_sided():
    # row 0 is the identity row, but column 0 is not: 1*0 = 0
    with pytest.raises(GroupTableError) as info:
        FiniteGroup(2, ((0, 1), (0, 1)), (0, 1))
    assert str(info.value) == "index 0 is not a two-sided identity (fails at 1)"


def test_finite_group_refuses_a_wrong_inverse_entry():
    z3 = make_cyclic(3)
    with pytest.raises(GroupTableError) as info:
        FiniteGroup(3, z3.op, (0, 1, 1))
    assert str(info.value) == "inverse table wrong at element 1"


def test_coset_system_refuses_a_subgroup_without_the_identity():
    with pytest.raises(ValueError) as info:
        CosetSystem(mask_of([1, 2]), (mask_of([1, 2]), mask_of([0, 3])))
    assert str(info.value) == "subgroup must contain the identity"


def test_coset_system_refuses_cosets_of_unequal_size():
    with pytest.raises(ValueError) as info:
        CosetSystem(mask_of([0, 3]), (mask_of([0, 3]), mask_of([1, 4, 5])))
    assert str(info.value) == "cosets must all have the subgroup's size"


Z4 = [[(a + b) % 4 for b in range(4)] for a in range(4)]


@pytest.mark.parametrize("rows_as", [list, tuple], ids=["list rows", "tuple rows"])
def test_validate_table_names_the_first_of_a_range_and_a_length_fault(rows_as):
    # an entry out of range in row 1, then a short row 2
    table = [row[:] for row in Z4]
    table[1][2] = 4
    table[2] = table[2][:3]
    for t in (list(map(rows_as, table)), tuple(map(rows_as, table))):
        with pytest.raises(GroupTableError) as info:
            validate_table(t)
        assert str(info.value) == "entry (1,2) = 4 out of range 0..3"
    # a short row 1, then an entry out of range in row 2
    table = [row[:] for row in Z4]
    table[1] = table[1][:3]
    table[2][1] = -1
    for t in (list(map(rows_as, table)), tuple(map(rows_as, table))):
        with pytest.raises(GroupTableError) as info:
            validate_table(t)
        assert str(info.value) == "row 1 has 3 entries, expected 4"


def test_validate_table_names_the_first_entry_out_of_range_in_a_row():
    table = [row[:] for row in Z4]
    table[3][3], table[3][1] = 7, -2
    for t in (table, [tuple(row) for row in table]):
        with pytest.raises(GroupTableError) as info:
            validate_table(t)
        assert str(info.value) == "entry (3,1) = -2 out of range 0..3"


def test_validate_table_on_tuple_rows_with_the_identity_elsewhere():
    table = perm_table(*PERM_GENERATORS["D4"])
    p = list(range(8))
    p[0], p[5] = 5, 0
    moved = relabel(table, p)
    group = validate_table([tuple(row) for row in moved], "D4")
    assert group == validate_table(moved, "D4") == reference_validate(moved)
    assert all(type(row) is tuple for row in group.op)
    # and a loop that is no group, its identity moved to 3
    p = [3, 1, 2, 0, 4]
    loop = relabel(LOOP5, p)
    with pytest.raises(GroupTableError) as info:
        validate_table(tuple(tuple(row) for row in loop))
    assert str(info.value) == reference_validate(loop) == validate_outcome(loop)


def test_validate_table_keeps_one_copy_of_its_rows():
    # D512, 1024 elements: r^i s^j at index i + 512j
    n = 512

    def mul(a: int, b: int) -> int:
        return (a % n + (-1) ** (a // n) * (b % n)) % n + n * ((a // n + b // n) % 2)

    table = [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]
    tracemalloc.start()
    try:
        group = validate_table(table, "D512")
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert group.order == 2 * n
    # a copy of the rows made as lists, then again as tuples, peaked at
    # 16.9 MB above the input while the group kept 8.5 MB
    assert peak <= 1.2 * kept, (peak, kept)
