"""Behaviour pins for the value classes: read-only fields, equality and
hashing, reprs, construction defaults and construction checks."""

import pytest

from groupra.algebra import AtomIndex, MeasureEntry, MeasureReport
from groupra.errors import GroupTableError
from groupra.frames import FrameCheckReport, IsoRecord, Violation
from groupra.groups import (
    CosetSystem,
    FiniteGroup,
    IsoCheck,
    enumerate_cosets,
    make_cyclic,
    mask_of,
)
from groupra.relations import ConcreteRelation


def z6() -> FiniteGroup:
    return make_cyclic(6)


def z6_thirds() -> CosetSystem:
    """The cosets of {0,3} in Z6, built by hand (no group keeps them)."""
    return CosetSystem(mask_of([0, 3]), (mask_of([0, 3]), mask_of([1, 4]), mask_of([2, 5])))


def violation() -> Violation:
    return Violation("iv", ("0", "1", "2"), "phi maps {1,4} off {2}")


def values() -> dict:
    thirds = z6_thirds()
    return {
        "FiniteGroup": (z6(), "order"),
        "CosetSystem": (thirds, "cosets"),
        "IsoRecord": (IsoRecord("0", "1", thirds, thirds), "h"),
        "ConcreteRelation": (ConcreteRelation(2, (1, 2)), "rows"),
        "Violation": (violation(), "detail"),
        "FrameCheckReport": (FrameCheckReport("full", (violation(),)), "violations"),
        "IsoCheck": (IsoCheck(False, "not injective"), "ok"),
    }


@pytest.mark.parametrize("name", list(values()))
def test_fields_refuse_assignment(name):
    value, field = values()[name]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    assert getattr(value, field) is before
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is before


@pytest.mark.parametrize("name", ["FiniteGroup", "CosetSystem", "ConcreteRelation"])
def test_writes_are_refused_with_the_field_name(name):
    value, field = values()[name]
    for target in (field, "new_field"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{target}'$"):
            setattr(value, target, 0)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{target}'$"):
            delattr(value, target)


def test_group_equality_and_hash_ignore_label_and_kept_systems():
    g = z6()
    other = FiniteGroup(order=6, op=g.op, inverse=g.inverse, label="other")
    enumerate_cosets(g, mask_of([0, 3]))
    assert g._cosets and not other._cosets
    assert g == other and hash(g) == hash(other)
    assert g.relabelled("copy") == g and hash(g.relabelled("copy")) == hash(g)
    assert FiniteGroup(g.order, g.op, g.inverse).label == "G"
    assert g != make_cyclic(3) and g != (g.order, g.op, g.inverse)


def test_coset_system_equality_and_hash_ignore_reps_and_where():
    built, fresh = z6_thirds(), z6_thirds()
    assert built.reps == (0, 1, 2) and built._where == [0, 1, 2, 0, 1, 2]
    assert "reps" not in vars(fresh) and "_where" not in vars(fresh)
    assert built == fresh and hash(built) == hash(fresh)
    keyword = CosetSystem(subgroup=built.subgroup, cosets=built.cosets)
    assert keyword == built and hash(keyword) == hash(built)
    swapped = CosetSystem(built.subgroup, (built.cosets[0], built.cosets[2], built.cosets[1]))
    assert swapped != built
    image = built.permuted((0, 2, 1))
    assert image == swapped and hash(image) == hash(swapped)


def test_permuted_runs_no_construction_check(monkeypatch):
    system = z6_thirds()

    def refuse(self, *args, **kwargs):
        raise AssertionError("the check ran again")

    monkeypatch.setattr(CosetSystem, "__init__", refuse)
    image = system.permuted((0, 2, 1))
    assert image.cosets == (system.cosets[0], system.cosets[2], system.cosets[1])


def test_records_compare_and_hash_by_their_fields():
    thirds = z6_thirds()
    record = IsoRecord("0", "1", thirds, thirds)
    again = IsoRecord(x="0", y="1", h=z6_thirds(), k=z6_thirds())
    assert record == again and hash(record) == hash(again)
    assert record != IsoRecord("1", "0", thirds, thirds)
    assert record.kappa == 3
    assert ConcreteRelation(2, (1, 2)) == ConcreteRelation(size=2, rows=(1, 2))
    assert hash(ConcreteRelation(2, (1, 2))) == hash(ConcreteRelation(2, (1, 2)))
    assert ConcreteRelation(2, (1, 2)) != ConcreteRelation(2, (2, 1))
    # a value never equals one of another class, even one holding its fields
    relation = ConcreteRelation(2, (1, 2))
    assert thirds != (thirds.subgroup, thirds.cosets) and (thirds.subgroup, thirds.cosets) != thirds
    assert relation != (relation.size, relation.rows) and (relation.size, relation.rows) != relation
    assert thirds != relation and relation != thirds and z6() != thirds and thirds != z6()
    assert thirds.__eq__(relation) is NotImplemented and relation.__eq__(thirds) is NotImplemented
    assert violation() == violation() and hash(violation()) == hash(violation())
    report = FrameCheckReport("full", (violation(),))
    assert report == FrameCheckReport(mode="full", violations=(violation(),))
    assert hash(report) == hash(FrameCheckReport("full", (violation(),)))
    assert not report.ok and FrameCheckReport("full", ()).ok
    assert IsoCheck(True) == IsoCheck(ok=True, witness=None)
    assert hash(IsoCheck(True)) == hash(IsoCheck(True, None))
    entry = MeasureEntry("0", AtomIndex("0", "0", 0), 6)
    assert entry == MeasureEntry(x="0", atom=AtomIndex("0", "0", 0), measure=6)
    report = MeasureReport((entry,), True, False)
    assert report == MeasureReport(entries=(entry,), pair_dense=True, singleton_dense=False)


@pytest.mark.parametrize(
    "from_lists, twin, fields",
    [
        (
            lambda: FiniteGroup(6, [list(row) for row in z6().op], list(z6().inverse)),
            z6,
            ("op", "inverse"),
        ),
        (lambda: CosetSystem(9, [9, 18, 36]), z6_thirds, ("cosets",)),
        (lambda: ConcreteRelation(2, [1, 2]), lambda: ConcreteRelation(2, (1, 2)), ("rows",)),
    ],
    ids=["FiniteGroup", "CosetSystem", "ConcreteRelation"],
)
def test_values_built_from_lists_hold_tuples(from_lists, twin, fields):
    value, expected = from_lists(), twin()
    assert value == expected and hash(value) == hash(expected)
    for field in fields:
        held = getattr(value, field)
        assert type(held) is tuple and held == getattr(expected, field)
    if isinstance(value, FiniteGroup):
        assert all(type(row) is tuple for row in value.op)


def test_reprs_and_texts():
    assert repr(violation()) == (
        "Violation(condition='iv', where=('0', '1', '2'), detail='phi maps {1,4} off {2}')"
    )
    assert str(violation()) == "violation (iv) at (0,1,2): phi maps {1,4} off {2}"
    assert repr(IsoCheck(False, "not injective")) == "IsoCheck(ok=False, witness='not injective')"
    assert repr(IsoCheck(True)) == "IsoCheck(ok=True, witness=None)"
    assert repr(z6_thirds()) == "CosetSystem(subgroup=9, cosets=(9, 18, 36))"
    assert repr(z6()) == "FiniteGroup(Z6, order=6)"
    assert repr(ConcreteRelation(2, (1, 2))) == "ConcreteRelation(size=2, pairs=2)"
    assert FrameCheckReport("full", (violation(),)).lines() == [
        "frame check (full): FAIL",
        "violation (iv) at (0,1,2): phi maps {1,4} off {2}",
    ]


Z3_OP = ((0, 1, 2), (1, 2, 0), (2, 0, 1))

BAD_GROUPS = [
    ((0, (), ()), "group order must be positive, got 0"),
    ((2000, (), ()), "group order 2000 exceeds the cap of 1024"),
    ((3, Z3_OP[:2], (0, 2, 1)), "operation table is not 3x3"),
    ((3, (Z3_OP[0], Z3_OP[1], (2, 0)), (0, 2, 1)), "operation table is not 3x3"),
    ((3, Z3_OP, (0, 2)), "inverse table has 2 entries, expected 3"),
    ((3, (Z3_OP[0], (1, 2, 0), (2, 1, 1)), (0, 2, 1)), "inverse table wrong at element 1"),
    (
        (3, ((0, 1, 2), (2, 2, 0), (2, 0, 1)), (0, 2, 1)),
        "index 0 is not a two-sided identity (fails at 1)",
    ),
    ((3, Z3_OP, (0, 1, 2)), "inverse table wrong at element 1"),
    ((3, Z3_OP, (0, 2, 3)), "inverse table wrong at element 2"),
]


@pytest.mark.parametrize("args, text", BAD_GROUPS)
def test_bad_tables_are_refused(args, text):
    with pytest.raises(GroupTableError) as info:
        FiniteGroup(*args)
    assert str(info.value) == text


BAD_SYSTEMS = [
    ((9, ()), "coset 0 must be the subgroup itself"),
    ((9, (18, 9)), "coset 0 must be the subgroup itself"),
    ((6, (6, 9)), "subgroup must contain the identity"),
    ((9, (9, 38)), "cosets must all have the subgroup's size"),
    ((9, (9, 10)), "cosets must be pairwise disjoint"),
]


@pytest.mark.parametrize("args, text", BAD_SYSTEMS)
def test_bad_cosets_are_refused(args, text):
    with pytest.raises(ValueError) as info:
        CosetSystem(*args)
    assert str(info.value) == text


@pytest.mark.parametrize(
    "rows, text",
    [((1,), "expected 2 rows, got 1"), ((1, 4), "row mask reaches outside the base set")],
)
def test_bad_relations_are_refused(rows, text):
    with pytest.raises(ValueError) as info:
        ConcreteRelation(2, rows)
    assert str(info.value) == text
