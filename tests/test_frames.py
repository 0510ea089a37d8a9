"""Tests for frame records, derived isomorphisms, and the condition checkers."""

import random
from hashlib import sha256
from itertools import permutations, product
from pathlib import Path
from typing import Iterator

import pytest

from groupra.builders import build_cyclic_frame, build_power_frame, cyclic_iso_record
from groupra.errors import InvalidFrameError, NotRelatedError
from groupra.fileformat import parse_frame
from groupra.frames import (
    Frame,
    IsoRecord,
    _coarse_images,
    _p0,
    _slots,
    _times_normal,
    check_frame_full,
    check_frame_reduced,
    try_image,
)
from groupra.groups import (
    CosetSystem,
    FiniteGroup,
    complex_product,
    elements,
    enumerate_cosets,
    is_normal,
    is_subset,
    make_cyclic,
    mask_of,
)

from tests.helpers import (
    corrupt_kappa,
    corrupt_map,
    iv_verdicts,
    small_frame_census,
    triple_verdicts,
)
from tests.test_algebra import centre, dihedral_square, quaternion_units
from tests.test_groups import PERM_GENERATORS, closure, perm_group

Z6 = make_cyclic(6)
Z9 = make_cyclic(9)
H6 = enumerate_cosets(Z6, mask_of([0, 3]))
K9 = enumerate_cosets(Z9, mask_of([0, 3, 6]))


def running_pair() -> Frame:
    return Frame(
        {"0": Z6, "1": Z9},
        [["0", "1"]],
        {("0", "1"): IsoRecord("0", "1", H6, K9)},
    )


def test_iso_record_kappa():
    record = IsoRecord("0", "1", H6, K9)
    assert record.kappa == 3


def test_try_image_and_preimage():
    record = IsoRecord("0", "1", H6, K9)
    assert try_image(record, mask_of([1, 4])) == mask_of([1, 4, 7])
    assert try_image(record, mask_of([0, 3, 1, 4])) == mask_of([0, 3, 6, 1, 4, 7])
    assert try_image(record, 0) == 0
    assert try_image(record, mask_of([1])) is None  # not a full coset
    back = running_pair().resolve_iso("1", "0")  # preimages are images under the reverse
    assert try_image(back, mask_of([2, 5, 8])) == mask_of([2, 5])
    assert try_image(back, mask_of([2, 5])) is None


def test_resolve_stored_and_derived():
    frame = running_pair()
    fwd = frame.resolve_iso("0", "1")
    assert fwd is frame.isos[("0", "1")]
    back = frame.resolve_iso("1", "0")
    assert back.h.cosets == fwd.k.cosets
    assert back.k.cosets == fwd.h.cosets
    square = frame.resolve_iso("0", "0")
    assert square.kappa == 6
    assert [elements(c) for c in square.h.cosets] == [[e] for e in range(6)]
    assert square.k.cosets == square.h.cosets
    # derived records are cached
    assert frame.resolve_iso("1", "0") is back


def test_every_record_is_built_at_construction(monkeypatch):
    import groupra.frames

    shipped = Path(__file__).resolve().parent.parent / "frames"
    frames = [parse_frame(path.read_text()) for path in sorted(shipped.glob("*.frame"))]
    assert len(frames) == 5
    # a power frame of Z6 glued along {0,3}, in two blocks that interleave
    frames.append(
        Frame(
            dict.fromkeys("abcd", Z6),
            [["a", "c"], ["b", "d"]],
            {("a", "c"): IsoRecord("a", "c", H6, H6), ("b", "d"): IsoRecord("b", "d", H6, H6)},
        )
    )
    built = []

    def counting(real):
        def wrapper(*args, **kwargs):
            built.append(real.__name__)
            return real(*args, **kwargs)

        return wrapper

    for name in ("IsoRecord", "CosetSystem"):
        monkeypatch.setattr(groupra.frames, name, counting(getattr(groupra.frames, name)))
    for frame in frames:
        pairs = [(x, y) for x in frame.order for y in frame.order if frame.related(x, y)]
        assert list(frame.records) == pairs
        for x, y in pairs:
            assert frame.resolve_iso(x, y) is frame.records[(x, y)]
    assert built == []


def test_resolve_unrelated_and_unknown():
    frame = build_cyclic_frame([2, 3], {})  # no related pairs: two blocks
    with pytest.raises(NotRelatedError, match="different blocks"):
        frame.resolve_iso("0", "1")
    with pytest.raises(NotRelatedError, match="unknown group index"):
        frame.resolve_iso("0", "7")


def test_related_and_block_of():
    frame = build_cyclic_frame([2, 3, 4], {(0, 2): 2})
    assert frame.related("0", "2")
    assert not frame.related("0", "1")
    assert frame.blocks == (("0", "2"), ("1",))


def test_ctor_rejects_unknown_block_index():
    with pytest.raises(InvalidFrameError, match="unknown index"):
        Frame({"0": Z6}, [["0", "9"]], {})


def test_ctor_rejects_duplicated_index():
    with pytest.raises(InvalidFrameError, match="appears in two blocks"):
        Frame({"0": Z6, "1": Z9}, [["0"], ["0", "1"]], {})


def test_ctor_rejects_uncovered_index():
    with pytest.raises(InvalidFrameError, match="belongs to no block"):
        Frame({"0": Z6, "1": Z9}, [["0"]], {})


def test_ctor_rejects_empty_block():
    with pytest.raises(InvalidFrameError, match="empty block"):
        Frame({}, [[]], {})
    with pytest.raises(InvalidFrameError, match="empty block"):
        Frame({"0": Z6}, [["0"], []], {})


def test_ctor_rejects_missing_pair():
    with pytest.raises(InvalidFrameError, match=r"missing isomorphism for pair \(0,1\)"):
        Frame({"0": Z6, "1": Z9}, [["0", "1"]], {})


def test_ctor_rejects_mislabeled_record():
    record = IsoRecord("1", "0", H6, K9)
    with pytest.raises(InvalidFrameError, match="names"):
        Frame({"0": Z6, "1": Z9}, [["0", "1"]], {("0", "1"): record})


def test_ctor_rejects_descending_pair():
    record = IsoRecord("1", "0", K9, H6)
    with pytest.raises(InvalidFrameError, match="declared before"):
        Frame({"0": Z6, "1": Z9}, [["0", "1"]], {("1", "0"): record})


def test_ctor_rejects_cross_block_record():
    record = IsoRecord("0", "1", H6, K9)
    with pytest.raises(InvalidFrameError, match="crosses blocks"):
        Frame({"0": Z6, "1": Z9}, [["0"], ["1"]], {("0", "1"): record})


def test_ctor_rejects_non_normal_h():
    import itertools

    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms]
    from groupra.groups import validate_table

    g = validate_table(table, label="S3")
    sub = mask_of([0, 1])  # a non-normal 2-element subgroup
    cosets = (sub,)
    seen = sub
    for a in range(6):
        if not seen >> a & 1:
            c = mask_of(g.mul(a, b) for b in [0, 1])
            cosets += (c,)
            seen |= c
    system = CosetSystem(sub, cosets)
    with pytest.raises(InvalidFrameError, match="is not normal"):
        Frame(
            {"0": g, "1": g},
            [["0", "1"]],
            {("0", "1"): IsoRecord("0", "1", system, system)},
        )


def test_ctor_rejects_non_subgroup_h():
    not_a_subgroup = CosetSystem(
        mask_of([0, 1]), (mask_of([0, 1]), mask_of([2, 3]), mask_of([4, 5]))
    )
    with pytest.raises(InvalidFrameError, match="is not a subgroup") as info:
        Frame(
            {"0": Z6, "1": Z9},
            [["0", "1"]],
            {("0", "1"): IsoRecord("0", "1", not_a_subgroup, K9)},
        )
    assert info.value.pair == ("0", "1")


def test_ctor_rejects_non_canonical_h_order():
    shuffled = CosetSystem(
        mask_of([0, 3]), (mask_of([0, 3]), mask_of([2, 5]), mask_of([1, 4]))
    )
    with pytest.raises(InvalidFrameError, match="canonical order"):
        Frame(
            {"0": Z6, "1": Z9},
            [["0", "1"]],
            {("0", "1"): IsoRecord("0", "1", shuffled, K9)},
        )


def test_ctor_rejects_quotient_size_mismatch():
    singles9 = enumerate_cosets(Z9, 1)
    with pytest.raises(InvalidFrameError, match="quotient sizes .* 3 vs 9"):
        Frame(
            {"0": Z6, "1": Z9},
            [["0", "1"]],
            {("0", "1"): IsoRecord("0", "1", H6, singles9)},
        )


def test_ctor_rejects_fake_k_cosets():
    fake = CosetSystem(
        mask_of([0, 3, 6]), (mask_of([0, 3, 6]), mask_of([1, 4, 8]), mask_of([2, 5, 7]))
    )
    with pytest.raises(InvalidFrameError, match="not cosets of K"):
        Frame(
            {"0": Z6, "1": Z9},
            [["0", "1"]],
            {("0", "1"): IsoRecord("0", "1", H6, fake)},
        )


def test_ctor_rejects_k_cosets_that_miss_some_cosets_of_k():
    # three of the six cosets of {0,6} in Z12: as many as H6 has, but not all of K's
    partial = CosetSystem(mask_of([0, 6]), (mask_of([0, 6]), mask_of([1, 7]), mask_of([2, 8])))
    with pytest.raises(InvalidFrameError, match="not cosets of K") as info:
        Frame(
            {"0": Z6, "1": make_cyclic(12)},
            [["0", "1"]],
            {("0", "1"): IsoRecord("0", "1", H6, partial)},
        )
    assert info.value.pair == ("0", "1")


def test_ctor_rejects_non_homomorphic_pairing():
    z4 = make_cyclic(4)
    singles = enumerate_cosets(z4, 1)
    swapped = CosetSystem(1, (1 << 0, 1 << 2, 1 << 1, 1 << 3))
    with pytest.raises(InvalidFrameError, match="not a quotient isomorphism"):
        Frame(
            {"0": z4, "1": z4},
            [["0", "1"]],
            {("0", "1"): IsoRecord("0", "1", singles, swapped)},
        )


def test_frame_equality_is_structural():
    a = build_cyclic_frame([6, 9], {(0, 1): 3})
    b = build_cyclic_frame([6, 9], {(0, 1): 3})
    c = build_cyclic_frame([6, 9], {(0, 1): 1})
    assert a == b
    assert a != c
    assert a == running_pair()


def test_frame_equality_with_a_non_frame_is_not_implemented():
    frame = running_pair()
    assert frame.__eq__(frame._signature()) is NotImplemented
    assert frame.__eq__(None) is NotImplemented
    assert frame != frame._signature() and frame != "frame"


def test_frame_repr_names_its_indices_and_blocks():
    shipped = Path(__file__).resolve().parent.parent / "frames"
    frame = parse_frame((shipped / "z6z9.frame").read_text())
    assert repr(frame) == "Frame(indices=['0', '1'], blocks=[['0', '1']])"
    split = build_cyclic_frame([2, 3, 4], [[2, 0, 2], [0, 3, 0], [2, 0, 4]])
    assert repr(split) == "Frame(indices=['0', '1', '2'], blocks=[['0', '2'], ['1']])"


def induced_lists(frame: Frame, x: str, y: str, z: str) -> tuple:
    """P0's system and the M0- and N0-coset lists it induces at (x,y,z)."""
    p = _p0(frame, x, y, z)
    m = _coarse_images(frame.records[(y, x)], p)
    n = _coarse_images(frame.records[(y, z)], p)
    return p, m, n


def test_induced_iso_running_triples():
    frame = running_pair()
    p, m, n = induced_lists(frame, "0", "1", "1")
    assert p.subgroup == mask_of([0, 3, 6])
    assert tuple(m) == H6.cosets
    assert tuple(n) == K9.cosets
    # z = x folds back to the H side
    p, m, n = induced_lists(frame, "0", "1", "0")
    assert p.subgroup == mask_of([0, 3, 6])
    assert tuple(m) == tuple(n) == H6.cosets
    # x = y starts from the singleton square record
    p, m, n = induced_lists(frame, "0", "0", "1")
    assert p.subgroup == mask_of([0, 3])
    assert tuple(m) == p.cosets == H6.cosets
    assert tuple(n) == K9.cosets


def test_checks_pass_on_running_pair():
    frame = running_pair()
    full = check_frame_full(frame)
    assert full.ok and full.mode == "full"
    reduced = check_frame_reduced(frame)
    assert reduced.ok and reduced.mode == "reduced"
    assert frame.last_check is reduced
    assert reduced.lines() == ["frame check (reduced): PASS"]
    assert check_frame_full(frame).mode == "full"


def test_perturbed_map_fails_both_checks():
    base = build_cyclic_frame([4, 8, 12], {(i, j): 4 for i in range(3) for j in range(i + 1, 3)})
    bad = corrupt_map(base, ("0", "1"), 3)
    full = check_frame_full(bad)
    reduced = check_frame_reduced(bad)
    assert not full.ok and not reduced.ok
    assert {v.condition for v in reduced.violations} == {"iv"}
    assert str(reduced.violations[0]).startswith("violation (iv) at (0,1,2)")


def test_checked_frame_cannot_be_mutated():
    frame = build_cyclic_frame([4, 8, 12], {(i, j): 4 for i in range(3) for j in range(i + 1, 3)})
    assert check_frame_reduced(frame).ok
    twisted = corrupt_map(frame, ("0", "1"), 3).isos[("0", "1")]
    with pytest.raises(TypeError):
        frame.isos[("0", "1")] = twisted
    with pytest.raises(TypeError):
        frame.groups["0"] = make_cyclic(4)
    assert frame.isos[("0", "1")] != twisted


def test_mismatched_kappa_fails_both_checks():
    bad = corrupt_kappa(random.Random(3))
    full = check_frame_full(bad)
    reduced = check_frame_reduced(bad)
    assert not full.ok and not reduced.ok
    assert "iii" in {v.condition for v in reduced.violations}


def test_conditions_i_and_ii_hold_on_every_record(corpus):
    shipped = [
        parse_frame(path.read_text())
        for path in sorted((Path(__file__).resolve().parent.parent / "frames").glob("*.frame"))
    ]
    pairs = 0
    for frame in [*corpus, *shipped, *power_frames_of_small_groups()]:
        related = [(x, y) for block in frame.blocks for x in block for y in block]
        assert sorted(frame.records) == sorted(related)
        for x, y in related:
            record = frame.records[(x, y)]
            if x == y:
                # (i): phi_xx is the identity of G_x/{e}
                singles = tuple(1 << e for e in range(frame.groups[x].order))
                assert record.h.subgroup == record.k.subgroup == 1, x
                assert record.h.cosets == record.k.cosets == singles, x
            else:
                # (ii): phi_yx is the coset-map inverse of phi_xy
                back = frame.records[(y, x)]
                assert (back.h, back.k) == (record.k, record.h), (x, y)
            pairs += 1
    assert pairs > 0


def test_checks_pass_on_small_random_corpus():
    rng = random.Random(12)
    from tests.helpers import random_cyclic_spec

    for _ in range(8):
        orders, kappa = random_cyclic_spec(rng, small=True)
        frame = build_cyclic_frame(orders, kappa)
        assert check_frame_full(frame).ok
        assert check_frame_reduced(frame).ok


def _z12_cube() -> Frame:
    """Z12^3 with kappa 6, 4, 6: the image equations fail and H_xz leaves M0."""
    z12 = make_cyclic(12)
    kappa = {("0", "1"): 6, ("0", "2"): 4, ("1", "2"): 6}
    isos = {(x, y): cyclic_iso_record(x, y, 12, 12, k) for (x, y), k in kappa.items()}
    return Frame({"0": z12, "1": z12, "2": z12}, [["0", "1", "2"]], isos)


def test_violation_lines_are_pinned():
    kappa_frame = corrupt_kappa(random.Random(3))
    assert check_frame_reduced(kappa_frame).lines() == [
        "frame check (reduced): FAIL",
        "violation (iii) at (0,1,2): image of H_xy*H_xz is {0,6,12}, "
        "expected {0,2,4,6,8,10,12,14,16}",
    ]
    assert check_frame_full(kappa_frame).lines() == [
        "frame check (full): FAIL",
        "violation (iii) at (0,1,2): image of H_xy*H_xz is {0,6,12}, "
        "expected {0,2,4,6,8,10,12,14,16}",
        "violation (iii) at (0,2,1): image of H_xy*H_xz is {0,6,12,18}, "
        "expected {0,2,4,6,8,10,12,14,16,18,20,22}",
        "violation (iii) at (1,0,2): image of H_xy*H_xz is {0,2,4,6,8,10}, expected {0,6}",
        "violation (iv) at (1,0,2): H_xz = {0,2,4,6,8,10,12,14,16} is not inside M0 = {0,6,12}",
        "violation (iii) at (2,0,1): image of H_xy*H_xz is {0,2,4,6,8,10}, expected {0,6}",
        "violation (iv) at (2,0,1): H_xz = {0,2,4,6,8,10,12,14,16,18,20,22} "
        "is not inside M0 = {0,6,12,18}",
    ]

    base = build_cyclic_frame([4, 8, 12], {(i, j): 4 for i in range(3) for j in range(i + 1, 3)})
    map_frame = corrupt_map(base, ("0", "1"), 3)
    assert check_frame_reduced(map_frame).lines() == [
        "frame check (reduced): FAIL",
        "violation (iv) at (0,1,2): direct image of {3} is {3,7,11}, induced route gives {1,5,9}",
        "violation (iv) at (0,1,2): direct image of {1} is {1,5,9}, induced route gives {3,7,11}",
    ]
    assert check_frame_full(map_frame).lines() == [
        "frame check (full): FAIL",
        "violation (iv) at (0,1,2): direct image of {3} is {3,7,11}, induced route gives {1,5,9}",
        "violation (iv) at (0,1,2): direct image of {1} is {1,5,9}, induced route gives {3,7,11}",
        "violation (iv) at (0,2,1): direct image of {1} is {3,7}, induced route gives {1,5}",
        "violation (iv) at (0,2,1): direct image of {3} is {1,5}, induced route gives {3,7}",
        "violation (iv) at (1,0,2): direct image of {3,7} is {3,7,11}, induced route gives {1,5,9}",
        "violation (iv) at (1,0,2): direct image of {1,5} is {1,5,9}, induced route gives {3,7,11}",
        "violation (iv) at (1,2,0): direct image of {1,5} is {3}, induced route gives {1}",
        "violation (iv) at (1,2,0): direct image of {3,7} is {1}, induced route gives {3}",
        "violation (iv) at (2,0,1): direct image of {1,5,9} is {1,5}, induced route gives {3,7}",
        "violation (iv) at (2,0,1): direct image of {3,7,11} is {3,7}, induced route gives {1,5}",
        "violation (iv) at (2,1,0): direct image of {1,5,9} is {1}, induced route gives {3}",
        "violation (iv) at (2,1,0): direct image of {3,7,11} is {3}, induced route gives {1}",
    ]

    cube = _z12_cube()
    assert check_frame_reduced(cube).lines() == [
        "frame check (reduced): FAIL",
        "violation (iii) at (0,1,2): image of H_xy*H_xz is {0,2,4,6,8,10}, expected {0,6}",
        "violation (iii) at (0,1,2): image of K_xy*H_yz is {0,6}, expected {0,2,4,6,8,10}",
        "violation (iv) at (0,1,2): H_xz = {0,4,8} is not inside M0 = {0,6}",
    ]
    assert check_frame_full(cube).lines() == [
        "frame check (full): FAIL",
        "violation (iii) at (0,1,2): image of H_xy*H_xz is {0,2,4,6,8,10}, expected {0,6}",
        "violation (iv) at (0,1,2): H_xz = {0,4,8} is not inside M0 = {0,6}",
        "violation (iii) at (1,0,2): image of H_xy*H_xz is {0,6}, expected {0,2,4,6,8,10}",
        "violation (iii) at (1,2,0): image of H_xy*H_xz is {0,6}, expected {0,2,4,6,8,10}",
        "violation (iii) at (2,1,0): image of H_xy*H_xz is {0,2,4,6,8,10}, expected {0,6}",
        "violation (iv) at (2,1,0): H_xz = {0,4,8} is not inside M0 = {0,6}",
    ]


def test_coset_list_product_matches_the_elementwise_product():
    generators = {
        **{label: PERM_GENERATORS[label] for label in ("S3", "D4", "Q8", "A4")},
        "Z12": [tuple((i + 1) % 12 for i in range(12))],
    }
    checked = 0
    for label, gens in generators.items():
        g = perm_group(label, *gens)
        subgroups = sorted({closure(g, a, b) for a in g.elements() for b in g.elements()})
        for b in (n for n in subgroups if is_normal(g, n)):
            system = enumerate_cosets(g, b)
            for a in subgroups:
                assert _times_normal(a, system) == complex_product(g, a, b), (label, a, b)
                checked += 1
    # subgroups x normal subgroups: S3 6x3, D4 10x6, Q8 6x6, A4 10x3, Z12 6x6
    assert checked == 18 + 60 + 36 + 30 + 36


def test_induced_p0_is_the_canonical_system_of_the_product(corpus):
    shipped = [
        parse_frame(path.read_text())
        for path in sorted((Path(__file__).resolve().parent.parent / "frames").glob("*.frame"))
    ]
    triples = 0
    for frame in [*corpus, *shipped]:
        for block in frame.blocks:
            for x, y, z in product(block, repeat=3):
                gy = frame.groups[y]
                p0 = complex_product(
                    gy, frame.resolve_iso(x, y).k.subgroup, frame.resolve_iso(y, z).h.subgroup
                )
                # a fresh copy of G_y keeps no systems, so this one is built anew
                fresh = FiniteGroup(gy.order, gy.op, gy.inverse, gy.label)
                expected = enumerate_cosets(fresh, p0)
                assert _p0(frame, x, y, z) == expected, (x, y, z)
                triples += 1
    assert triples > 0


def power_frames_of_small_groups() -> list[Frame]:
    """Three copies of S3, D4, Q8 and A4, glued along every normal subgroup."""
    frames = []
    for label in ("S3", "D4", "Q8", "A4"):
        g = perm_group(label, *PERM_GENERATORS[label])
        subgroups = {closure(g, a, b) for a in g.elements() for b in g.elements()}
        for n in sorted(n for n in subgroups if is_normal(g, n)):
            frames.append(build_power_frame(g, n, ["0", "1", "2"]))
    return frames


def test_coarse_images_match_the_images_element_by_element(corpus):
    shipped = [
        parse_frame(path.read_text())
        for path in sorted((Path(__file__).resolve().parent.parent / "frames").glob("*.frame"))
    ]
    powers = power_frames_of_small_groups()
    # S3 3, D4 6, Q8 6, A4 3 normal subgroups
    assert len(powers) == 18
    triples = 0
    for frame in [*corpus, *shipped, *powers]:
        for block in frame.blocks:
            # every order, x = y and y = z and descending triples included
            for x, y, z in product(block, repeat=3):
                p, m, n = induced_lists(frame, x, y, z)
                ryx, ryz = frame.resolve_iso(y, x), frame.resolve_iso(y, z)
                assert p.count == len(m) == len(n), (x, y, z)
                for j, pc in enumerate(p.cosets):
                    assert m[j] == try_image(ryx, pc), (x, y, z, j)
                    assert n[j] == try_image(ryz, pc), (x, y, z, j)
                triples += 1
    assert triples > 0


def d4_q8_d4_frames() -> Iterator[Frame]:
    """D4, Q8, D4 glued along their centres, on each of the 216 map choices."""
    groups = {"0": dihedral_square(), "1": quaternion_units(), "2": dihedral_square()}
    systems = {x: enumerate_cosets(g, centre(g)) for x, g in groups.items()}
    pairs = [("0", "1"), ("0", "2"), ("1", "2")]
    for maps in product(permutations((1, 2, 3)), repeat=3):
        isos = {}
        for (x, y), order in zip(pairs, maps):
            k = systems[y]
            image = CosetSystem(k.subgroup, (k.subgroup, *(k.cosets[i] for i in order)))
            isos[(x, y)] = IsoRecord(x, y, systems[x], image)
        yield Frame(groups, [["0", "1", "2"]], isos)


def _d4_q8_d4_reports() -> tuple[str, str]:
    reduced, full = [], []
    for frame in d4_q8_d4_frames():
        reduced += check_frame_reduced(frame).lines()
        full += check_frame_full(frame).lines()
    return "\n".join(reduced), "\n".join(full)


def test_d4_q8_d4_reports_are_pinned_on_every_map_choice():
    reduced, full = _d4_q8_d4_reports()
    assert reduced.count("frame check (reduced)") == full.count("frame check (full)") == 216
    assert (len(reduced.splitlines()), len(full.splitlines())) == (648, 2808)
    # any change to which violations are found, their order or their text moves these
    assert sha256(reduced.encode()).hexdigest() == (
        "e339d08ab9b3d34295a98d441667f074f700b59daaf627ea8e228a0ff9067124"
    )
    assert sha256(full.encode()).hexdigest() == (
        "fb28b018d082964565e80894651ace29a49f532728cfdf55498689cf483b7db6"
    )


def test_slots_put_each_h_xz_coset_in_its_m0_coset(corpus):
    shipped = [
        parse_frame(path.read_text())
        for path in sorted((Path(__file__).resolve().parent.parent / "frames").glob("*.frame"))
    ]
    triples = 0
    for frame in [*corpus, *shipped, *power_frames_of_small_groups()]:
        for block in frame.blocks:
            for x, y, z in product(block, repeat=3):
                p, m, _ = induced_lists(frame, x, y, z)
                rxz = frame.records[(x, z)]
                slots = _slots(frame.records[(y, x)], rxz, p)
                assert len(slots) == rxz.kappa, (x, y, z)
                for hc, j in zip(rxz.h.cosets, slots):
                    assert is_subset(hc, m[j]), (x, y, z)
                triples += 1
    assert triples > 0


def test_checks_build_no_induced_systems(corpus, verdict_frames, monkeypatch):
    import groupra.frames

    shipped = [
        parse_frame(path.read_text())
        for path in sorted((Path(__file__).resolve().parent.parent / "frames").glob("*.frame"))
    ]
    frames = [*shipped, *corpus, *verdict_frames[1]]

    def refuse(*args):
        raise AssertionError("a frame check resolved a record")

    monkeypatch.setattr(Frame, "resolve_iso", refuse)
    reduced = [line for frame in frames for line in check_frame_reduced(frame).lines()]
    full = [line for frame in frames for line in check_frame_full(frame).lines()]
    assert (len(frames), len(reduced), len(full)) == (51, 107, 387)
    # the report lines of the same frames before the checks read the records directly
    assert sha256("\n".join(reduced).encode()).hexdigest() == (
        "0784621ad25364677c7e20c15487bc74210f0bb2c22e114497d06549f8b8a72f"
    )
    assert sha256("\n".join(full).encode()).hexdigest() == (
        "001e4d2f92034937466d67375f6709580af6b754e0c4f8fe49734523b2253bec"
    )


def test_frame_refuses_an_iso_filed_under_an_unknown_index():
    z6, z9 = make_cyclic(6), make_cyclic(9)
    h, k = enumerate_cosets(z6, mask_of([0, 3])), enumerate_cosets(z9, mask_of([0, 3, 6]))
    good = IsoRecord("0", "1", h, k)
    for pair in (("0", "7"), ("7", "1")):
        isos = {("0", "1"): good, pair: IsoRecord(*pair, h, k)}
        with pytest.raises(InvalidFrameError) as info:
            Frame({"0": z6, "1": z9}, [["0", "1"]], isos)
        assert str(info.value) == f"isomorphism for unknown pair ({pair[0]},{pair[1]})"
        assert info.value.pair == pair


# The frame of the failing-check smoke step: three copies of Z4 with trivial
# H and K, identity maps on (0,1) and (0,2), and a twisted map on (1,2).
TWISTED_Z4_CUBE = """\
group 0 cyclic 4
group 1 cyclic 4
group 2 cyclic 4
block 0 1 2
iso 0 1
H 0
K 0
map 0:0 1:1 2:2 3:3
end
iso 0 2
H 0
K 0
map 0:0 1:1 2:2 3:3
end
iso 1 2
H 0
K 0
map 0:0 1:3 2:2 3:1
end
"""


def z48_frames() -> dict[str, Frame]:
    """Z48^12 and its two corrupted twins, as the benchmark builds them at seed 5."""
    from perfbench.inputs import spec_text, z48_corpus

    specs = z48_corpus(random.Random("validate-corpus:5"))
    return {spec.name: parse_frame(spec_text(spec)) for spec in specs}


def test_sweeps_image_each_pair_once_per_p0(monkeypatch):
    import groupra.frames

    real = groupra.frames._coarse_images
    calls = []

    def counting(record, coarse):
        calls.append((record.x, record.y, coarse.subgroup))
        return real(record, coarse)

    monkeypatch.setattr(groupra.frames, "_coarse_images", counting)
    frame = z48_frames()["z48x12"]
    assert check_frame_full(frame).ok
    # 1,320 triples of distinct indices ask for 2,640 images, of 460 distinct (pair, P0) keys
    assert len(calls) == len(set(calls)) <= 460
    calls.clear()
    assert check_frame_reduced(frame).ok
    assert len(calls) == len(set(calls)) <= 251


def test_passing_full_check_builds_products_only_for_p0(monkeypatch):
    import groupra.frames

    calls = []

    def counting(name):
        real = getattr(groupra.frames, name)

        def call(*args):
            calls.append(name)
            return real(*args)

        return call

    for name in ("_p0", "_times_normal"):
        monkeypatch.setattr(groupra.frames, name, counting(name))
    # condition (iii) is read off orders: only P0 = K_xy*H_yz is a product
    assert check_frame_full(z48_frames()["z48x12"]).ok
    assert calls.count("_times_normal") == calls.count("_p0") > 0


def _report_pin(reports: list[list[str]]) -> tuple[int, str]:
    text = "\n".join(line for lines in reports for line in lines)
    return len(text.splitlines()), sha256(text.encode()).hexdigest()


def test_sweep_reports_keep_their_text_and_order(verdict_frames, corpus):
    twins = z48_frames()
    sound, corrupted = verdict_frames
    cases = {
        "twin-twist": [twins["twin-twist"]],
        "twin-kappa": [twins["twin-kappa"]],
        "z4 cube": [parse_frame(TWISTED_Z4_CUBE)],
        "verdict corpus": [*sound, *corrupted],
        "cyclic corpus": corpus,
    }
    # taken before the sweeps kept their facts in a dict of their own
    pins = {
        "twin-twist": (
            (93, "ada7d6dc3552986e565c64be0bc2f25ddeb9390a94ee2ec08389d54eb93fdb93"),
            (553, "20e99713004327e21803326d5df11fbe77477e2d822f26d35d8889a00d036d99"),
        ),
        "twin-kappa": (
            (4, "fd91aa9ba1760a6d19bc6e6fd17afa01b987d7b7f5117ad47fbd2590f984b8fc"),
            (19, "2cccfab631df308a5e7257e6d2ad161fd573e8a60aac753ea20843c56ead00bc"),
        ),
        "z4 cube": (
            (3, "82827b0b50ca88c94fc6e08442525bb37d9fd80f1a923d3667d069b1519d6217"),
            (13, "ec328a424644ac91d6e37da95de3252aca5e34212b6311dc159fe9c54bfe3f75"),
        ),
        "verdict corpus": (
            (156, "ba4b6f8e91d3000b8da92f528227903b3ad6f14d31a47f8cc36a7ddd2252ad69"),
            (436, "b1e6d4370b0a99d55147c421303f0f7d76a8850b6a152f5aec467f92321ff9c7"),
        ),
        "cyclic corpus": (
            (26, "474efa3342cf8e540812f54020097991ef5c2e687c0cd6ad32d116ca0dceadbc"),
            (26, "043a0981ca84bd545d0ef27e83515d66324872cec7b9ce05e350f72c009fd97f"),
        ),
    }
    for name, frames in cases.items():
        reduced = _report_pin([check_frame_reduced(frame).lines() for frame in frames])
        full = _report_pin([check_frame_full(frame).lines() for frame in frames])
        assert (reduced, full) == pins[name], name


def test_sweeps_keep_nothing_but_the_verdict(corpus):
    import groupra.frames

    module = dict(vars(groupra.frames))
    for frame in [*corpus, *z48_frames().values(), parse_frame(TWISTED_Z4_CUBE)]:
        before = dict(vars(frame))
        for check in (check_frame_full, check_frame_reduced):
            report = check(frame)
            after = dict(vars(frame))
            assert after.pop("_verdict") is report
            assert after == {k: v for k, v in before.items() if k != "_verdict"}
    assert vars(groupra.frames) == module


def test_passing_triples_gather_no_direct_images(corpus, monkeypatch):
    import groupra.frames

    real = groupra.frames._slots
    calls = []

    def counting(ryx, rxz, p):
        calls.append((rxz.x, ryx.x, rxz.y))
        return real(ryx, rxz, p)

    monkeypatch.setattr(groupra.frames, "_slots", counting)
    shipped = [
        parse_frame(path.read_text())
        for path in sorted((Path(__file__).resolve().parent.parent / "frames").glob("*.frame"))
    ]
    twins = z48_frames()
    # 16 copies of Z1024 at kappa 1024: 1,024 cosets per record, one generator
    wide = build_cyclic_frame([1024] * 16, {(i, j): 1024 for i in range(16) for j in range(i + 1, 16)})
    for frame in [twins["z48x12"], *corpus, *shipped, wide]:
        for check in (check_frame_full, check_frame_reduced):
            assert check(frame).ok
            assert calls == [], frame
    # on the twisted twin the direct images are gathered only where (iv) fails
    for check, count in ((check_frame_full, 24), (check_frame_reduced, 4)):
        report = check(twins["twin-twist"])
        failing = {v.where for v in report.violations if v.detail.startswith("direct image")}
        assert len(calls) == len(set(calls)) == len(failing) == count
        assert set(calls) == failing
        calls.clear()


def test_generators_decide_condition_iv(corpus, verdict_frames):
    shipped = [
        parse_frame(path.read_text())
        for path in sorted((Path(__file__).resolve().parent.parent / "frames").glob("*.frame"))
    ]
    sound, corrupted = verdict_frames
    # Z1 has no generators: its triples are decided on none
    trivial = build_cyclic_frame([4, 1, 6], {(0, 1): 1, (0, 2): 2, (1, 2): 1})
    assert trivial.groups["1"]._generating_set == []
    frames = [
        *corpus,
        *sound,
        *corrupted,
        *shipped,
        *power_frames_of_small_groups(),
        *d4_q8_d4_frames(),
        trivial,
    ]
    verdicts = [v for frame in frames for v in iv_verdicts(frame)]
    assert all(generators == direct for generators, direct in verdicts)
    # triples with H_xz inside M0 whose direct images match / miss the N0-cosets
    assert (verdicts.count((True, True)), verdicts.count((False, False))) == (7_736, 1_140)


def test_census_of_small_frames():
    catalogue = ["Z1", "Z2", "Z3", "Z4", "V4"]
    frames = passing = ascending = ascending_passing = 0
    verdicts = {}
    equations = {}
    for frame in small_frame_census():
        ok = check_frame_reduced(frame).ok
        assert check_frame_full(frame).ok == ok, frame
        for (x, y, z), iii_m, iii_n, iv in triple_verdicts(frame):
            if len({x, y, z}) < 3:
                # conditions (i) and (ii), which Frame builds in, settle a
                # repeated index: check_frame_full does not visit it
                assert (iii_m, iii_n, iv) == ((True, True),) * 3, ((x, y, z), frame)
            for name, (orders, products) in (("M0", iii_m), ("N0", iii_n)):
                assert orders == products, (name, frame)
                equations[name, products] = equations.get((name, products), 0) + 1
            if iv is not None:
                generators, direct = iv
                assert generators == direct, frame
                verdicts[direct] = verdicts.get(direct, 0) + 1
        frames += 1
        passing += ok
        ranks = [catalogue.index(g.label) for g in frame.groups.values()]
        if ranks == sorted(ranks):
            ascending += 1
            ascending_passing += ok
    # every order of the three groups; as multisets of groups, 4,943 frames and 1,013 pass
    assert (frames, passing) == (6_602, 1_785)
    assert (ascending, ascending_passing) == (4_943, 1_013)
    # triples with H_xz inside M0 whose direct images match / miss the N0-cosets
    assert verdicts == {True: 160_200, False: 7_500}
    # each (iii) equation at every ordered triple holds / fails, off orders and products
    # alike; N0 at (x,y,z) is M0 at (z,y,x), so the two counts are equal
    assert equations == {
        ("M0", True): 159_522,
        ("M0", False): 18_732,
        ("N0", True): 159_522,
        ("N0", False): 18_732,
    }
