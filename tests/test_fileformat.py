"""Tests for frame file parsing, emission, and the line-numbered errors."""

import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupra.builders import build_cyclic_frame, build_power_frame, merge_frames
from groupra.errors import FrameFormatError
from groupra.fileformat import _content_bodies, emit_frame, parse_frame
from groupra.frames import Frame
from groupra.groups import MAX_GROUP_ORDER, enumerate_cosets, make_cyclic, mask_of, validate_table

KLEIN = [
    [0, 1, 2, 3],
    [1, 0, 3, 2],
    [2, 3, 0, 1],
    [3, 2, 1, 0],
]

Z6Z9 = """\
group 0 cyclic 6
group 1 cyclic 9
block 0 1
iso 0 1
H 0 3
K 0 3 6
map 0:0 1:1 2:2
end
"""


def lines(*rows: str) -> str:
    return "\n".join(rows) + "\n"


def expect_error(text: str, line: int, fragment: str) -> None:
    with pytest.raises(FrameFormatError) as info:
        parse_frame(text)
    assert info.value.line == line, str(info.value)
    assert fragment in info.value.reason, str(info.value)


def test_parse_canonical_running_file():
    frame = parse_frame(Z6Z9)
    assert frame == build_cyclic_frame([6, 9], {(0, 1): 3})


def test_emit_is_parse_inverse_and_fixed_point():
    frame = build_cyclic_frame([6, 9], {(0, 1): 3})
    text = emit_frame(frame)
    assert text == Z6Z9
    again = parse_frame(text)
    assert again == frame
    assert emit_frame(again) == text


def test_parse_tolerates_comments_and_spacing():
    text = lines(
        "# a frame with remarks",
        "group 0 cyclic 6   # the small group",
        "",
        "group 1 cyclic 9",
        "block   0   1",
        "iso 0 1",
        "  H 0 3",
        "K 0 3 6  # image side",
        "map 0:0 1:1 2:2",
        "end",
    )
    assert parse_frame(text) == build_cyclic_frame([6, 9], {(0, 1): 3})



def test_form_feed_does_not_start_a_line():
    # grep -n puts argle on line 3: only \r\n, \r and \n end a line
    expect_error("group 0 cyclic 6\f\nblock 0\nargle\n", 3, "unknown directive 'argle'")
    expect_error("group 0 cyclic 6\x1c\x85\nblock 0\u2029\nargle\n", 3, "unknown directive")


def test_comment_runs_past_a_unicode_line_separator():
    frame = parse_frame("# note\u2028group 1 cyclic 4\ngroup 0 cyclic 4\nblock 0\n")
    assert frame.order == ("0",)


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_crlf_and_cr_files_keep_their_line_numbers(newline):
    text = newline.join(["group 0 cyclic 6", "# note", "", "block 0", "argle", ""])
    expect_error(text, 5, "unknown directive 'argle'")
    assert parse_frame(Z6Z9.replace("\n", newline)) == parse_frame(Z6Z9)

def test_parse_accepts_any_coset_representatives():
    text = lines(
        "group 0 cyclic 6",
        "group 1 cyclic 9",
        "block 0 1",
        "iso 0 1",
        "H 3 0",
        "K 6 0 3",
        "map 3:6 4:1 5:8",
        "end",
    )
    assert parse_frame(text) == build_cyclic_frame([6, 9], {(0, 1): 3})


def test_parse_accepts_automorphism_pairings():
    # map gamma -> 2*gamma: a different but perfectly good isomorphism
    text = lines(
        "group 0 cyclic 6",
        "group 1 cyclic 9",
        "block 0 1",
        "iso 0 1",
        "H 0 3",
        "K 0 3 6",
        "map 0:0 1:2 2:1",
        "end",
    )
    frame = parse_frame(text)
    assert frame != build_cyclic_frame([6, 9], {(0, 1): 3})
    record = frame.isos[("0", "1")]
    from groupra.groups import elements

    assert [elements(c) for c in record.k.cosets] == [[0, 3, 6], [2, 5, 8], [1, 4, 7]]


def test_round_trip_table_group():
    g = validate_table(KLEIN, label="V4")
    frame = build_power_frame(g, 1, ["0", "1"])
    text = emit_frame(frame)
    assert "group 0 table 4" in text
    again = parse_frame(text)
    assert again == frame
    assert emit_frame(again) == text


def test_round_trip_multiblock():
    frame = merge_frames(
        [build_cyclic_frame([6, 9], {(0, 1): 3}), build_power_frame(make_cyclic(2), 1, ["a"])]
    )
    text = emit_frame(frame)
    assert parse_frame(text) == frame
    assert emit_frame(parse_frame(text)) == text


def test_emit_shape():
    text = emit_frame(build_cyclic_frame([6, 9], {(0, 1): 3}))
    assert text.endswith("\n")
    assert not any(line != line.rstrip() for line in text.splitlines())


def test_error_unknown_directive():
    expect_error(lines("flock 0"), 1, "unknown directive 'flock'")


def test_error_group_arity():
    expect_error(lines("group 0 cyclic"), 1, "expected 'group <id> cyclic|table <n>'")
    expect_error(lines("group 0 ring 4"), 1, "expected 'group <id> cyclic|table <n>'")


def test_error_duplicate_group():
    expect_error(
        lines("group 0 cyclic 2", "group 0 cyclic 3"), 2, "duplicate group id '0'"
    )


def test_error_group_order_not_integer():
    expect_error(lines("group 0 cyclic six"), 1, "group order must be an integer")


def test_error_group_order_not_positive():
    expect_error(lines("group 0 cyclic 0"), 1, "must be positive")


def test_error_table_order_not_positive():
    # refused at the group line with the cyclic wording, before any row is read
    for n in (-3, 0):
        expect_error(
            lines(f"group 0 table {n}", "block 0"), 1, f"group order must be positive, got {n}"
        )


def test_error_group_order_over_the_cap():
    # refused at the group line, before a row is read or a table is built
    for kind in ("cyclic", "table"):
        expect_error(
            lines(f"group 0 {kind} 100000", "block 0"),
            1,
            f"group order 100000 exceeds the cap of {MAX_GROUP_ORDER}",
        )


def test_error_table_row_length():
    expect_error(
        lines("group 0 table 2", "0 1", "1"), 3, "table row has 1 entries, expected 2"
    )


def test_error_table_not_a_group():
    expect_error(
        lines("group 0 table 2", "1 1", "1 1"), 1, "not a group table: no two-sided identity"
    )


def test_error_truncated_iso():
    expect_error(
        lines("group 0 cyclic 6", "group 1 cyclic 9", "block 0 1", "iso 0 1", "H 0 3"),
        5,
        "unexpected end of file",
    )


def test_error_block_unknown_id():
    expect_error(lines("group 0 cyclic 2", "block 0 9"), 2, "unknown id '9'")


def test_error_block_empty():
    expect_error(lines("group 0 cyclic 2", "block"), 2, "block needs at least one id")


def test_error_id_in_two_blocks():
    expect_error(
        lines("group 0 cyclic 2", "block 0", "block 0"), 3, "id '0' already belongs to a block"
    )


def test_error_id_in_no_block():
    expect_error(
        lines("group 0 cyclic 2", "group 1 cyclic 2", "block 0"), 2, "id '1' belongs to no block"
    )


def test_error_iso_arity():
    expect_error(lines("group 0 cyclic 2", "block 0", "iso 0"), 3, "expected 'iso <x> <y>'")


def test_error_tokens_after_end():
    text = Z6Z9.replace("end\n", "end extra\n")
    expect_error(text, 8, "'end' takes no arguments")


def test_error_iso_unknown_id():
    expect_error(
        lines(
            "group 0 cyclic 6",
            "group 1 cyclic 9",
            "block 0 1",
            "iso 0 q",
            "H 0 3",
            "K 0 3 6",
            "map 0:0 1:1 2:2",
            "end",
        ),
        4,
        "unknown id 'q'",
    )


def test_error_iso_wrong_order():
    expect_error(
        lines(
            "group 0 cyclic 9",
            "group 1 cyclic 6",
            "block 0 1",
            "iso 1 0",
            "H 0 3",
            "K 0 3 6",
            "map 0:0 1:1 2:2",
            "end",
        ),
        4,
        "iso requires '1' declared before '0'",
    )


def test_error_iso_crosses_blocks():
    expect_error(
        lines(
            "group 0 cyclic 6",
            "group 1 cyclic 9",
            "block 0",
            "block 1",
            "iso 0 1",
            "H 0 3",
            "K 0 3 6",
            "map 0:0 1:1 2:2",
            "end",
        ),
        5,
        "iso (0,1) crosses blocks",
    )


def test_error_duplicate_iso():
    body = ("iso 0 1", "H 0 3", "K 0 3 6", "map 0:0 1:1 2:2", "end")
    expect_error(
        lines("group 0 cyclic 6", "group 1 cyclic 9", "block 0 1", *body, *body),
        9,
        "duplicate iso for (0,1)",
    )


def test_error_missing_pair():
    expect_error(
        lines("group 0 cyclic 6", "group 1 cyclic 9", "block 0 1"),
        3,
        "missing iso for in-block pair (0,1)",
    )


def test_error_iso_body_out_of_order():
    expect_error(
        lines(
            "group 0 cyclic 6",
            "group 1 cyclic 9",
            "block 0 1",
            "iso 0 1",
            "K 0 3 6",
            "H 0 3",
            "map 0:0 1:1 2:2",
            "end",
        ),
        5,
        "expected 'H' here, got 'K'",
    )


def test_error_map_entry_without_colon():
    expect_error(
        lines(
            "group 0 cyclic 6",
            "group 1 cyclic 9",
            "block 0 1",
            "iso 0 1",
            "H 0 3",
            "K 0 3 6",
            "map 0=0 1:1 2:2",
            "end",
        ),
        7,
        "map entry '0=0' lacks ':'",
    )


def test_error_h_element_out_of_range():
    expect_error(
        lines(
            "group 0 cyclic 6",
            "group 1 cyclic 9",
            "block 0 1",
            "iso 0 1",
            "H 0 7",
            "K 0 3 6",
            "map 0:0 1:1 2:2",
            "end",
        ),
        5,
        "element 7 outside group '0'",
    )


def test_error_k_element_out_of_range():
    text = lines(
        "group 0 cyclic 6",
        "group 1 cyclic 9",
        "block 0 1",
        "iso 0 1",
        "H 0 3",
        "K 0 3 9",
        "map 0:0 1:1 2:2",
        "end",
    )
    with pytest.raises(FrameFormatError) as info:
        parse_frame(text)
    assert (info.value.line, info.value.reason) == (6, "element 9 outside group '1'")


def test_error_h_not_a_subgroup():
    expect_error(
        lines(
            "group 0 cyclic 6",
            "group 1 cyclic 9",
            "block 0 1",
            "iso 0 1",
            "H 0 1",
            "K 0 3 6",
            "map 0:0 1:1 2:2",
            "end",
        ),
        5,
        "is not a subgroup",
    )


def test_error_h_not_normal():
    table_rows = [
        "0 1 2 3 4 5",
        "1 0 4 5 2 3",
        "2 3 0 1 5 4",
        "3 2 5 4 0 1",
        "4 5 1 0 3 2",
        "5 4 3 2 1 0",
    ]
    expect_error(
        lines(
            "group 0 table 6",
            *table_rows,
            "group 1 table 6",
            *table_rows,
            "block 0 1",
            "iso 0 1",
            "H 0 1",
            "K 0 1",
            "map 0:0 2:2 4:4",
            "end",
        ),
        17,
        "H is not normal in group '0'",
    )


def test_error_incompatible_quotients():
    expect_error(
        lines(
            "group 0 cyclic 6",
            "group 1 cyclic 9",
            "block 0 1",
            "iso 0 1",
            "H 0 3",
            "K 0",
            "map 0:0 1:1 2:2",
            "end",
        ),
        4,
        "incompatible quotients: 3 H-cosets vs 9 K-cosets",
    )


def test_error_map_entry_count():
    expect_error(
        lines(
            "group 0 cyclic 6",
            "group 1 cyclic 9",
            "block 0 1",
            "iso 0 1",
            "H 0 3",
            "K 0 3 6",
            "map 0:0 1:1",
            "end",
        ),
        7,
        "map has 2 entries, expected 3",
    )


def test_error_map_bad_representative():
    expect_error(
        lines(
            "group 0 cyclic 6",
            "group 1 cyclic 9",
            "block 0 1",
            "iso 0 1",
            "H 0 3",
            "K 0 3 6",
            "map 0:0 0:1 2:2",
            "end",
        ),
        7,
        "entry 1: 0 does not represent H-coset 1",
    )


def test_error_map_image_out_of_range():
    expect_error(
        lines(
            "group 0 cyclic 6",
            "group 1 cyclic 9",
            "block 0 1",
            "iso 0 1",
            "H 0 3",
            "K 0 3 6",
            "map 0:77 1:1 2:2",
            "end",
        ),
        7,
        "entry 0: 77 outside group '1'",
    )


def test_error_map_not_isomorphism():
    expect_error(
        lines(
            "group 0 cyclic 4",
            "group 1 cyclic 4",
            "block 0 1",
            "iso 0 1",
            "H 0",
            "K 0",
            "map 0:0 1:2 2:1 3:3",
            "end",
        ),
        7,
        "map is not a quotient isomorphism: not homomorphic at cosets (1,1)",
    )


def test_error_map_not_injective():
    expect_error(
        lines(
            "group 0 cyclic 6",
            "group 1 cyclic 9",
            "block 0 1",
            "iso 0 1",
            "H 0 3",
            "K 0 3 6",
            "map 0:0 1:1 2:1",
            "end",
        ),
        7,
        "map is not a quotient isomorphism: not injective",
    )


def test_error_map_moves_identity_coset():
    expect_error(
        lines(
            "group 0 cyclic 6",
            "group 1 cyclic 9",
            "block 0 1",
            "iso 0 1",
            "H 0 3",
            "K 0 3 6",
            "map 0:1 1:0 2:2",
            "end",
        ),
        7,
        "map is not a quotient isomorphism: identity coset maps to 1, not 0",
    )


def test_error_second_map_not_isomorphism():
    expect_error(
        lines(
            "group 0 cyclic 6",
            "group 1 cyclic 9",
            "group 2 cyclic 4",
            "group 3 cyclic 4",
            "block 0 1",
            "block 2 3",
            "iso 0 1",
            "H 0 3",
            "K 0 3 6",
            "map 0:0 1:1 2:2",
            "end",
            "iso 2 3",
            "H 0",
            "K 0",
            "map 0:0 1:2 2:1 3:3",
            "end",
        ),
        15,
        "map is not a quotient isomorphism: not homomorphic at cosets (1,1)",
    )


def test_parse_checks_each_record_once(monkeypatch):
    import groupra.fileformat
    import groupra.frames
    import groupra.groups

    frame = merge_frames(
        [
            build_cyclic_frame([6, 9], {(0, 1): 3}),
            build_power_frame(validate_table(KLEIN, label="V4"), 0b11, ["a", "b", "c"]),
        ]
    )
    text = emit_frame(frame)
    calls = dict.fromkeys(
        ["homomorphism_defect", "quotient_group", "enumerate_cosets", "validate_table"], 0
    )

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for module in (groupra.groups, groupra.frames, groupra.fileformat):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    assert parse_frame(text) == frame
    # the reader enumerates H and K to read a record, Frame once more to prove
    # it, and the homomorphism is read off the paired lists: no quotient group;
    # the three Klein tables are one text, validated once
    records = len(frame.isos)
    assert calls == {
        "homomorphism_defect": records,
        "quotient_group": 0,
        "enumerate_cosets": 4 * records,
        "validate_table": 1,
    }


def test_parse_proves_each_subgroup_once_per_group(monkeypatch):
    import groupra.groups

    frame = merge_frames(
        [
            build_cyclic_frame([6, 9], {(0, 1): 3}),
            build_power_frame(validate_table(KLEIN, label="V4"), 0b11, ["a", "b", "c"]),
        ]
    )
    text = emit_frame(frame)
    proofs = []
    real = groupra.groups._subgroup_generators
    monkeypatch.setattr(
        groupra.groups,
        "_subgroup_generators",
        lambda g, h: proofs.append((g.label, h)) or real(g, h),
    )
    assert parse_frame(text) == frame
    # H of (0,1) in Z6, K in Z9, and {0,1} once for the three Klein copies,
    # which are one text and share what Ta proved
    assert sorted(proofs) == [
        ("Ta", 0b11),
        ("Z6", mask_of([0, 3])),
        ("Z9", mask_of([0, 3, 6])),
    ]


def test_reader_and_frame_share_one_system_per_subgroup():
    for text in SHIPPED_TEXTS:
        frame = parse_frame(text)
        for (x, _), record in frame.isos.items():
            assert record.h is enumerate_cosets(frame.groups[x], record.h.subgroup)


def count_validate_table(monkeypatch) -> list:
    import groupra.fileformat

    calls = []
    real = groupra.fileformat.validate_table

    def counting(rows, label):
        calls.append(label)
        return real(rows, label)

    monkeypatch.setattr(groupra.fileformat, "validate_table", counting)
    return calls


def test_tables_one_entry_apart_are_each_validated(monkeypatch):
    klein_rows = [" ".join(map(str, row)) for row in KLEIN]
    # the second table differs in entry (3,3): 3*3 = 1, so it is no group
    bad_rows = [*klein_rows[:3], "3 2 1 1"]
    with pytest.raises(FrameFormatError) as alone:
        parse_frame(lines("group 1 table 4", *bad_rows, "block 1"))
    calls = count_validate_table(monkeypatch)
    text = lines("group 0 table 4", *klein_rows, "group 1 table 4", *bad_rows, "block 0 1")
    expect_error(text, 6, alone.value.reason)
    assert calls == ["T0", "T1"]


def test_non_subgroup_on_the_second_of_two_identical_tables_names_its_id(monkeypatch):
    klein_rows = [" ".join(map(str, row)) for row in KLEIN]
    calls = count_validate_table(monkeypatch)
    expect_error(
        lines(
            "group 0 table 4",
            *klein_rows,
            "group 1 table 4",
            *klein_rows,
            "group 2 cyclic 4",
            "block 0",
            "block 1 2",
            "iso 1 2",
            "H 0 1 2",
            "K 0 2",
            "map 0:0 2:1",
            "end",
        ),
        15,
        "[0, 1, 2] is not a subgroup of T1: product 1*2 = 3 falls outside the subset",
    )
    assert calls == ["T0"]


@pytest.mark.parametrize(
    "h, k, entries, line, reason",
    [
        ("0 x", "0 3 6", "0:0 1:1 2:2", 5, "H element must be an integer, got 'x'"),
        ("0 3", "0 3.0 6", "0:0 1:1 2:2", 6, "K element must be an integer, got '3.0'"),
        ("0 3", "0 3 6", "0:0 y:1 2:2", 7, "map representative must be an integer, got 'y'"),
        ("0 3", "0 3 6", "0:0 1:1 2:z", 7, "map image must be an integer, got 'z'"),
        ("0 3", "0 3 6", "0:0 1:1:1 2:2", 7, "map image must be an integer, got '1:1'"),
        ("0 3", "0 3 6", "0:0 1: 2:2", 7, "map image must be an integer, got ''"),
        ("0 3", "0 3 6", "0:0 :1 2:2", 7, "map representative must be an integer, got ''"),
        # the first bad token in the line is the one named
        ("0 3", "0 3 6", "0:0 1 2:x", 7, "map entry '1' lacks ':'"),
        ("0 3", "0 3 6", "0:0 1:x 2", 7, "map image must be an integer, got 'x'"),
        ("0 3", "0 3 6", "x:0 1:y 2:2", 7, "map representative must be an integer, got 'x'"),
    ],
)
def test_error_bad_token_in_h_k_or_map(h, k, entries, line, reason):
    text = lines(
        "group 0 cyclic 6",
        "group 1 cyclic 9",
        "block 0 1",
        "iso 0 1",
        f"H {h}",
        f"K {k}",
        f"map {entries}",
        "end",
    )
    with pytest.raises(FrameFormatError) as info:
        parse_frame(text)
    assert (info.value.line, info.value.reason) == (line, reason)


def reference_content_lines(text):
    """The reader's line splitter as it was before it kept one split per line."""
    out = []
    for i, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((i, body.split()))
    return out


@pytest.mark.parametrize(
    "text",
    [
        Z6Z9,
        "",
        "\n\n",
        "# only a comment\n   # and another\n#\n",
        "group 0 cyclic 6#glued\nblock 0 # spaced\n1#2 3\n#\n",
        "a b\r\nc\rd\n\r\n\re f\r",
        "group 0 cyclic 6\f\nblock\f0\n\f\n",
        "x\x1cy z\x1d\n\x1c\n\u2028\nu\u2028v # w\u2028x\n\x85 \u2029 t\n",
        "0 1\n1 0\n0 1\n1 0\n0 1\n  0 1\n0  1\n# 0 1\n0 1 # note\n0 1",
        "\t lead and trail \t \n\u00a0nbsp\u00a0\n",
    ],
)
def test_content_lines_match_the_per_line_split(text):
    got = [(i, body.split()) for i, body in _content_bodies(text)]
    assert got == reference_content_lines(text)


def test_equal_lines_share_one_body():
    got = _content_bodies("0 1\n1 0\n0 1\n1 0\n0 1 # note\n")
    assert got[0][1] is got[2][1]
    assert got[1][1] is got[3][1]
    assert (got[4][1], got[0][1]) == ("0 1 ", "0 1")


def test_power_frame_copies_differing_in_spacing_parse_equal(monkeypatch):
    frame = build_power_frame(validate_table(KLEIN, label="V4"), 0b11, ["a", "b", "c"])
    text = emit_frame(frame)
    rows = [" ".join(map(str, row)) for row in KLEIN]
    respaced = ["  " + row.replace(" ", "\t ") + " # row" for row in rows]
    # the second and third copies keep the first's tokens, in other spacing
    body = text.split("group b table 4\n", 1)[1]
    for row, new in zip(rows, respaced):
        body = body.replace(row + "\n", new + "\n")
    edited = text.split("group b table 4\n", 1)[0] + "# copy b\ngroup  b table 4\n" + body
    assert edited != text
    calls = count_validate_table(monkeypatch)
    assert parse_frame(edited) == frame
    assert calls == ["Ta"]


def test_power_frame_copies_share_their_proofs():
    frame = parse_frame(
        emit_frame(build_power_frame(validate_table(KLEIN, label="V4"), 0b11, ["a", "b", "c"]))
    )
    ga, gb, gc = (frame.groups[x] for x in "abc")
    assert (ga.label, gb.label, gc.label) == ("Ta", "Tb", "Tc")
    assert ga._cosets is gb._cosets is gc._cosets
    assert ga._generating_set is gb._generating_set is gc._generating_set
    assert enumerate_cosets(gc, 0b11) is enumerate_cosets(ga, 0b11)
    for record in frame.isos.values():
        assert record.h is enumerate_cosets(ga, 0b11)


def test_error_object_carries_line_and_reason():
    with pytest.raises(FrameFormatError) as info:
        parse_frame(lines("argle"))
    assert info.value.line == 1
    assert info.value.reason == "unknown directive 'argle'"
    assert str(info.value) == "line 1: unknown directive 'argle'"


SHIPPED_TEXTS = [
    path.read_text()
    for path in sorted((Path(__file__).resolve().parent.parent / "frames").glob("*.frame"))
]
FUZZ_VOCABULARY = [
    *"group block iso H K map end cyclic table # \n x".split(" "),
    *"0 1 2 3 4 6 8 9 -1".split(),
    *"0:0 1:1 2:2 3:3 1:0 0:1 2:4 4:2 4:3 3:2 7:7 9:0 -1:0 0:-1 1: :1 : 1:1:1".split(),
]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(SHIPPED_TEXTS), st.randoms(use_true_random=False))
def test_mutated_shipped_frames_parse_or_fail_as_format_errors(text, rng):
    """One to three tokens replaced, deleted or inserted; half the replacements
    hit a map entry, so that maps reach the quotient-isomorphism check."""
    tokens = [t for t in text.replace("\n", " \n ").split(" ") if t]
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["replace", "delete", "insert"])
        entries = [i for i, t in enumerate(tokens) if ":" in t]
        if kind == "replace" and entries and rng.random() < 0.5:
            i = rng.choice(entries)
        else:
            i = rng.randrange(len(tokens) + (kind == "insert"))
        if kind == "insert":
            tokens.insert(i, rng.choice(FUZZ_VOCABULARY))
        elif kind == "replace":
            tokens[i] = rng.choice(FUZZ_VOCABULARY)
        else:
            del tokens[i]
    try:
        assert isinstance(parse_frame(" ".join(tokens)), Frame)
    except FrameFormatError:
        pass


@pytest.mark.parametrize("copies", [1, 3])
def test_a_table_is_proved_without_its_tokens(copies):
    # D256, 512 elements: r^i s^j at index i + 256j
    n = 256

    def mul(a: int, b: int) -> int:
        return (a % n + (-1) ** (a // n) * (b % n)) % n + n * ((a // n + b // n) % 2)

    rows = [" ".join(str(mul(a, b)) for b in range(2 * n)) for a in range(2 * n)]
    declarations = [line for i in range(copies) for line in (f"group {i} table 512", *rows)]
    text = lines(*declarations, *(f"block {i}" for i in range(copies)))
    split = [row.split() for row in rows]
    token_bytes = sum(sys.getsizeof(t) for row in split for t in row) + sum(map(sys.getsizeof, split))
    del split
    tracemalloc.start()
    try:
        frame = parse_frame(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [g.order for g in frame.groups.values()] == [512] * copies
    # the tokens of one copy alone are about 15.7 MB; kept while the table
    # was converted and proved, the peak was 1.76 times that
    assert peak < token_bytes, (peak, token_bytes)


def z_table_rows(n: int) -> list[list[str]]:
    """The tokens of the addition table of Z_n, one list per row."""
    return [[str((a + b) % n) for b in range(n)] for a in range(n)]


def table_text(rows: list[list[str]]) -> str:
    return lines(f"group 0 table {len(rows)}", *(" ".join(row) for row in rows), "block 0")


def test_table_entries_spelled_otherwise_give_the_same_group():
    rows = z_table_rows(8)
    canonical = parse_frame(table_text(rows)).groups["0"]
    # 007 and +1 in row 0, -0 in row 1, Arabic-Indic three in row 2
    rows[0][7], rows[0][1], rows[1][7], rows[2][1] = "007", "+1", "-0", "٣"
    group = parse_frame(table_text(rows)).groups["0"]
    assert group == canonical
    assert group.op == tuple(tuple((a + b) % 8 for b in range(8)) for a in range(8))


def test_tables_spelled_otherwise_share_one_proof(monkeypatch):
    rows = z_table_rows(8)
    respelled = [row[:] for row in rows]
    respelled[0][7], respelled[3][1] = "007", "+4"
    text = lines(
        "group 0 table 8",
        *(" ".join(row) for row in rows),
        "group 1 table 8",
        *(" ".join(row) for row in respelled),
        "block 0",
        "block 1",
    )
    calls = count_validate_table(monkeypatch)
    frame = parse_frame(text)
    assert calls == ["T0"]
    assert frame.groups["1"] == frame.groups["0"]
    assert frame.groups["1"]._cosets is frame.groups["0"]._cosets
    assert frame.groups["1"].label == "T1"


@pytest.mark.parametrize(
    "first, second, reason",
    [
        (["0 1", "1 0"], ["0 1", "1 2 0", "2 0 1"], "table row has 2 entries, expected 3"),
        (["0 1 2", "1 2 0", "2 0 1"], ["0 1 2", "1 0"], "table row has 3 entries, expected 2"),
    ],
)
def test_row_read_in_a_table_of_another_order_is_refused_at_its_line(first, second, reason):
    text = lines(
        f"group 0 table {len(first)}",
        *first,
        f"group 1 table {len(second)}",
        *second,
        "block 0",
        "block 1",
    )
    with pytest.raises(FrameFormatError) as info:
        parse_frame(text)
    assert (info.value.line, info.value.reason) == (len(first) + 3, reason)


def test_table_entry_that_is_no_integer_is_named_at_its_row():
    rows = z_table_rows(6)
    rows[2][4] = "z"
    with pytest.raises(FrameFormatError) as info:
        parse_frame(table_text(rows))
    assert str(info.value) == "line 4: table entry must be an integer, got 'z'"


@pytest.mark.parametrize(
    "i, j, token, reason",
    [
        (5, 7, "60", "not a group table: entry (5,7) = 60 out of range 0..59"),
        (3, 2, "-1", "not a group table: entry (3,2) = -1 out of range 0..59"),
        (59, 0, "60", "not a group table: entry (59,0) = 60 out of range 0..59"),
    ],
)
def test_table_entry_out_of_range_is_named_at_the_group_line(i, j, token, reason):
    rows = z_table_rows(60)
    rows[i][j] = token
    with pytest.raises(FrameFormatError) as info:
        parse_frame(table_text(rows))
    assert (info.value.line, info.value.reason) == (1, reason)
    assert str(info.value) == f"line 1: {reason}"


def test_first_out_of_range_entry_of_a_table_is_named():
    rows = z_table_rows(60)
    rows[4][9], rows[2][50] = "-1", "60"
    expect_error(table_text(rows), 1, "not a group table: entry (2,50) = 60 out of range 0..59")


def test_short_row_after_a_bad_token_names_the_token_line():
    rows = z_table_rows(5)
    rows[1][3] = "x"
    rows[2] = rows[2][:4]
    with pytest.raises(FrameFormatError) as info:
        parse_frame(table_text(rows))
    assert str(info.value) == "line 3: table entry must be an integer, got 'x'"
    # and the reverse: the short row comes first
    rows = z_table_rows(5)
    rows[1] = rows[1][:4]
    rows[2][3] = "x"
    with pytest.raises(FrameFormatError) as info:
        parse_frame(table_text(rows))
    assert str(info.value) == "line 3: table row has 4 entries, expected 5"
