"""Tests for the frame builders and their refusal messages."""

import pytest

from groupra.algebra import AtomIndex, GroupRelationAlgebra
from groupra.builders import (
    MAX_POWER_COPIES,
    build_complex_algebra_frame,
    build_cyclic_frame,
    build_power_frame,
    cyclic_iso_record,
    merge_frames,
)
from groupra.errors import FrameBuildError, InvalidFrameError, NotASubgroupError
from groupra.groups import enumerate_cosets, make_cyclic, mask_of, validate_table
from groupra.relations import cayley_relation

KLEIN = [
    [0, 1, 2, 3],
    [1, 0, 3, 2],
    [2, 3, 0, 1],
    [3, 2, 1, 0],
]


def test_builders_leave_frames_checked():
    for frame in (
        build_complex_algebra_frame(make_cyclic(5)),
        build_power_frame(make_cyclic(4), 1, ["0", "1"]),
        build_cyclic_frame([6, 9], {(0, 1): 3}),
    ):
        assert frame.last_check is not None
        assert frame.last_check.ok


def test_complex_algebra_frame_is_cayley():
    g = make_cyclic(6)
    alg = GroupRelationAlgebra(build_complex_algebra_frame(g))
    assert len(alg.atoms()) == 6
    for f in range(6):
        assert alg.atom_relation(AtomIndex("0", "0", f)) == cayley_relation(g, f)
        assert alg.converse_atom(AtomIndex("0", "0", f)) == AtomIndex("0", "0", g.inv(f))


def test_complex_algebra_frame_klein_self_converse():
    g = validate_table(KLEIN, label="V4")
    alg = GroupRelationAlgebra(build_complex_algebra_frame(g, index="v"))
    assert len(alg.atoms()) == 4
    for a in alg.atoms():
        assert alg.converse_atom(a) == a


def test_power_frame_trivial_glue_gives_bijections():
    frame = build_power_frame(make_cyclic(4), 1, ["0", "1", "2"])
    alg = GroupRelationAlgebra(frame)
    assert len(alg.atoms()) == 36  # 3 squares of 4 plus 6 cross pairs of 4
    for a in alg.atoms():
        rel = alg.atom_relation(a)
        assert rel.count() == 4
        assert all(row.bit_count() in (0, 1) for row in rel.rows)


def test_power_frame_full_glue_gives_rectangles():
    frame = build_power_frame(make_cyclic(4), mask_of(range(4)), ["0", "1", "2"])
    alg = GroupRelationAlgebra(frame)
    assert len(alg.atoms()) == 12 + 6
    for a in alg.atoms():
        if a.x != a.y:
            assert a.alpha == 0
            assert alg.atom_relation(a).count() == 16


def test_power_frame_of_trivial_group_is_full_set_algebra():
    frame = build_power_frame(make_cyclic(1), 1, ["0", "1", "2"])
    alg = GroupRelationAlgebra(frame)
    assert len(alg.atoms()) == 9
    for a in alg.atoms():
        assert alg.atom_relation(a).count() == 1
    assert alg.unit_relation().count() == 9


def test_power_frame_with_blocks():
    frame = build_power_frame(
        make_cyclic(2), 1, ["a", "b", "c"], blocks=[["a", "b"], ["c"]]
    )
    assert len(frame.blocks) == 2
    assert not frame.related("a", "c")
    alg = GroupRelationAlgebra(frame)
    assert len(alg.atoms()) == 2 + 2 + 2 + 2 + 2  # squares a,b,c and pair (a,b) both ways
    assert not alg.is_simple()


def test_power_frame_block_may_list_its_ids_in_any_order():
    m = make_cyclic(4)
    frame = build_power_frame(m, 1, ["0", "1", "2"], [["2", "0"], ["1"]])
    assert frame == build_power_frame(m, 1, ["0", "1", "2"], [["0", "2"], ["1"]])
    assert list(frame.isos) == [("0", "2")]
    with pytest.raises(InvalidFrameError, match="block mentions unknown index '2'"):
        build_power_frame(m, 1, ["0", "1"], [["2", "0"], ["1"]])
    with pytest.raises(InvalidFrameError, match="index '0' appears in two blocks"):
        build_power_frame(m, 1, ["0", "1"], [["1", "0"], ["0"]])


def test_power_frame_rejects_duplicate_ids():
    with pytest.raises(FrameBuildError, match="duplicate index"):
        build_power_frame(make_cyclic(2), 1, ["0", "0"])


def test_power_frame_refuses_copies_over_the_cap_before_any_coset(monkeypatch):
    def no_cosets(*args):
        raise AssertionError("cosets enumerated")

    monkeypatch.setattr("groupra.builders.enumerate_cosets", no_cosets)
    for count in (MAX_POWER_COPIES + 1, 100000):
        message = f"power frame of {count} copies exceeds the cap of {MAX_POWER_COPIES}"
        with pytest.raises(FrameBuildError) as info:
            build_power_frame(make_cyclic(2), 1, [str(i) for i in range(count)])
        assert str(info.value) == message
    # at the cap the build goes on to enumerate cosets
    with pytest.raises(AssertionError, match="cosets enumerated"):
        build_power_frame(make_cyclic(2), 1, [str(i) for i in range(MAX_POWER_COPIES)])


def test_power_frame_refuses_a_negative_glue_at_once():
    message = "^-1 is not a subgroup of Z4: mask -1 is negative$"
    with pytest.raises(NotASubgroupError, match=message):
        build_power_frame(make_cyclic(4, "Z4"), -1, ["0", "1"])


def test_cyclic_frame_mapping_and_matrix_agree():
    by_mapping = build_cyclic_frame([6, 9], {(0, 1): 3})
    by_matrix = build_cyclic_frame([6, 9], [[6, 3], [3, 9]])
    assert by_mapping == by_matrix


def test_cyclic_frame_shares_one_group_per_order():
    # orders repeat across blocks and out of order; a zero splits index 4 off
    orders = [12, 6, 12, 6, 12]
    kappa = [[12, 6, 12, 6, 0], [6, 6, 6, 6, 0], [12, 6, 12, 6, 0], [6, 6, 6, 6, 0], [0, 0, 0, 0, 12]]
    frame = build_cyclic_frame(orders, kappa)
    assert frame.groups["0"] is frame.groups["2"] is frame.groups["4"]
    assert frame.groups["1"] is frame.groups["3"]
    assert frame.groups["0"] is not frame.groups["1"]
    assert [g.order for g in frame.groups.values()] == orders


def test_cyclic_frame_files_the_coset_systems_its_groups_keep():
    # orders repeat, kappas repeat across pairs, and a zero splits index 3 off
    orders = [12, 6, 12, 8]
    kappa = [[12, 6, 4, 0], [6, 6, 2, 0], [4, 2, 12, 0], [0, 0, 0, 8]]
    frame = build_cyclic_frame(orders, kappa)
    assert len(frame.isos) == 3
    for (x, y), record in frame.isos.items():
        gx, gy = frame.groups[x], frame.groups[y]
        assert record.h is enumerate_cosets(gx, record.h.subgroup)
        assert record.k is enumerate_cosets(gy, record.k.subgroup)
        assert record.h.subgroup == mask_of(range(0, gx.order, record.h.count))


def test_cyclic_frame_atom_counts():
    specs = [
        ([6, 9], {(0, 1): 3}),
        ([4, 8, 12], {(i, j): 4 for i in range(3) for j in range(i + 1, 3)}),
        ([5, 7], {}),
    ]
    for orders, kappa in specs:
        alg = GroupRelationAlgebra(build_cyclic_frame(orders, kappa))
        expected = sum(orders) + 2 * sum(kappa.values())
        assert len(alg.atoms()) == expected


def test_cyclic_frame_zeroes_split_blocks():
    frame = build_cyclic_frame([2, 3], [[2, 0], [0, 3]])
    assert len(frame.blocks) == 2
    assert not frame.related("0", "1")


def test_cyclic_frame_rejects_non_divisor():
    with pytest.raises(FrameBuildError, match=r"condition \(i\): 4 does not divide 6"):
        build_cyclic_frame([6, 9], {(0, 1): 4})


def test_cyclic_iso_record_rejects_non_divisor():
    with pytest.raises(FrameBuildError, match=r"condition \(i\): 5 does not divide 9"):
        cyclic_iso_record("0", "1", 10, 9, 5)


def test_cyclic_frame_rejects_wrong_diagonal():
    message = r"condition \(ii\): kappa\[0\]\[0\] = 5 but group 0 has order 6"
    with pytest.raises(FrameBuildError, match=message):
        build_cyclic_frame([6, 9], [[5, 3], [3, 9]])
    with pytest.raises(FrameBuildError, match=message):
        build_cyclic_frame([6, 9], {(0, 0): 5, (0, 1): 3})


def test_cyclic_frame_rejects_asymmetry():
    message = r"condition \(iii\): kappa\[0\]\[1\] = 3 but kappa\[1\]\[0\] = 2"
    with pytest.raises(FrameBuildError, match=message):
        build_cyclic_frame([6, 9], [[6, 3], [2, 9]])
    with pytest.raises(FrameBuildError, match=message):
        build_cyclic_frame([6, 9], {(0, 1): 3, (1, 0): 2})
    # a zero marks unrelated groups only when its mirror entry is zero too
    for kappa, shown in (
        ([[6, 0], [3, 9]], "0 but kappa[1][0] = 3"),
        ([[6, 3], [0, 9]], "3 but kappa[1][0] = 0"),
    ):
        with pytest.raises(FrameBuildError) as info:
            build_cyclic_frame([6, 9], kappa)
        assert str(info.value) == f"condition (iii): kappa[0][1] = {shown}"


def test_cyclic_frame_rejects_gcd_disagreement():
    with pytest.raises(
        FrameBuildError, match=r"condition \(iv\): gcds at \(0,1,2\) are 2, 4, 2"
    ):
        build_cyclic_frame([4, 8, 8], {(0, 1): 4, (0, 2): 4, (1, 2): 2})


def test_cyclic_frame_rejects_intransitive_pattern():
    message = (
        r"relation pattern is not an equivalence: \(0,1\) and \(1,2\) "
        r"are related but \(0,2\) is not"
    )
    with pytest.raises(FrameBuildError, match=message):
        build_cyclic_frame([2, 2, 2], {(0, 1): 1, (1, 2): 1})


def test_cyclic_frame_rejects_bad_kappa_shapes():
    with pytest.raises(FrameBuildError, match="out of range"):
        build_cyclic_frame([2, 2], {(0, 5): 1})
    with pytest.raises(FrameBuildError, match="must be positive"):
        build_cyclic_frame([2, 2], {(0, 1): -1})
    with pytest.raises(FrameBuildError, match="not 2x2"):
        build_cyclic_frame([2, 2], [[2, 1]])


def test_merge_frames_disjoint_union():
    left = build_cyclic_frame([6, 9], {(0, 1): 3})
    right = build_power_frame(make_cyclic(2), 1, ["a", "b"])
    merged = merge_frames([left, right])
    assert merged.order == ("0", "1", "a", "b")
    assert len(merged.blocks) == 2
    alg = GroupRelationAlgebra(merged)
    left_alg = GroupRelationAlgebra(left)
    right_alg = GroupRelationAlgebra(right)
    assert len(alg.atoms()) == len(left_alg.atoms()) + len(right_alg.atoms())
    assert not alg.is_simple()


def test_merge_frames_rejects_collision():
    left = build_cyclic_frame([2], {})
    right = build_cyclic_frame([3], {})
    with pytest.raises(FrameBuildError, match="appears in more than one part"):
        merge_frames([left, right])
