"""Tests for the command-line interface: exact output and exit codes."""

import contextlib
import gc
import io
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupra
from groupra.algebra import AtomIndex, GroupRelationAlgebra
from groupra.builders import MAX_POWER_COPIES, build_cyclic_frame, build_power_frame, merge_frames
from groupra.cli import _build_parser, main
from groupra.fileformat import emit_frame, parse_frame
from groupra.frames import check_frame_reduced
from groupra.groups import MAX_GROUP_ORDER, make_cyclic

from tests.helpers import corrupt_map


@pytest.fixture(scope="module")
def z6z9_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("frames") / "z6z9.frame"
    path.write_text(emit_frame(build_cyclic_frame([6, 9], {(0, 1): 3})))
    return str(path)


@pytest.fixture(scope="module")
def twoblock_file(tmp_path_factory):
    frame = merge_frames(
        [
            build_cyclic_frame([6, 9], {(0, 1): 3}),
            build_power_frame(make_cyclic(2), 1, ["a", "b"]),
        ]
    )
    path = tmp_path_factory.mktemp("frames") / "two.frame"
    path.write_text(emit_frame(frame))
    return str(path)


@pytest.fixture(scope="module")
def corrupted_file(tmp_path_factory):
    base = build_cyclic_frame(
        [4, 8, 12], {(i, j): 4 for i in range(3) for j in range(i + 1, 3)}
    )
    bad = corrupt_map(base, ("0", "1"), 3)
    path = tmp_path_factory.mktemp("frames") / "bad.frame"
    path.write_text(emit_frame(bad))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_pass(capsys, z6z9_file):
    code, out, err = run_cli(capsys, "validate", z6z9_file)
    assert (code, err) == (0, "")
    assert out == "frame check (reduced): PASS\n"
    code, out, _ = run_cli(capsys, "validate", z6z9_file, "--full")
    assert code == 0
    assert out == "frame check (full): PASS\n"


def test_validate_fail(capsys, corrupted_file):
    code, out, _ = run_cli(capsys, "validate", corrupted_file)
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "frame check (reduced): FAIL"
    assert any(line.startswith("violation (iv) at (0,1,2)") for line in lines[1:])


def test_validate_parse_error(capsys, tmp_path):
    path = tmp_path / "nonsense.frame"
    path.write_text("blart\n")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert err == "parse error: line 1: unknown directive 'blart'\n"


def test_validate_non_utf8_file(capsys, tmp_path):
    path = tmp_path / "binary.frame"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err == "parse error: line 1: not UTF-8 text (byte 0)\n"
    path.write_bytes(b"group 0 cyclic 2\n# caf\xe9\n")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err == "parse error: line 2: not UTF-8 text (byte 22)\n"



def test_non_utf8_byte_after_a_form_feed_is_reported_at_its_line(capsys, tmp_path):
    path = tmp_path / "feed.frame"
    path.write_bytes(b"group 0 cyclic 6\x0c\nblock 0\n\xff\n")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err == "parse error: line 3: not UTF-8 text (byte 26)\n"

def test_missing_file(capsys):
    code, _, err = run_cli(capsys, "validate", "/no/such/file.frame")
    assert code == 2
    assert "file.frame" in err


def test_atoms_listing(capsys, z6z9_file):
    code, out, _ = run_cli(capsys, "atoms", z6z9_file)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 21
    assert lines[0] == "0 ((0,0),0) 6"
    assert lines[6] == "6 ((0,1),0) 18"
    assert lines[20] == "20 ((1,1),8) 9"


def test_atoms_cosets(capsys, z6z9_file):
    code, out, _ = run_cli(capsys, "atoms", z6z9_file, "--cosets")
    assert code == 0
    lines = out.splitlines()
    assert lines[7] == "7 ((0,1),1) 18 coset={1,4} image={1,4,7}"


@pytest.mark.parametrize("name", ["z6z9", "d4q8d4"])
def test_atoms_reads_sizes_off_the_records(capsys, monkeypatch, name):
    path = str(Path(__file__).resolve().parent.parent / "frames" / f"{name}.frame")
    frame = parse_frame(Path(path).read_text())
    assert check_frame_reduced(frame).ok
    alg = GroupRelationAlgebra(frame)
    listing = "".join(
        f"{i} {atom.label()} {alg.atom_relation(atom).count()}\n"
        for i, atom in enumerate(alg.atoms())
    )
    code, with_cosets, _ = run_cli(capsys, "atoms", path, "--cosets")
    assert code == 0

    def refuse(self, atom):
        raise AssertionError(f"atom {atom.label()} materialized")

    monkeypatch.setattr(GroupRelationAlgebra, "atom_relation", refuse)
    monkeypatch.setattr(GroupRelationAlgebra, "materialize", refuse)
    assert run_cli(capsys, "atoms", path) == (0, listing, "")
    assert run_cli(capsys, "atoms", path, "--cosets") == (0, with_cosets, "")
    for plain, extended in zip(listing.splitlines(), with_cosets.splitlines(), strict=True):
        assert extended.startswith(plain + " coset=")


def test_atoms_pairs(capsys, z6z9_file):
    code, out, _ = run_cli(capsys, "atoms", z6z9_file, "--pairs")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 21 + 15 * 15
    at = lines.index("6 ((0,1),0) 18")
    assert lines[at + 1] == "0 6"
    assert lines[at + 2] == "0 9"


@pytest.mark.parametrize("name", ["z6z9", "d4q8d4"])
def test_atoms_pairs_keeps_no_relation(capsys, monkeypatch, name):
    path = str(Path(__file__).resolve().parent.parent / "frames" / f"{name}.frame")
    frame = parse_frame(Path(path).read_text())
    assert check_frame_reduced(frame).ok
    alg = GroupRelationAlgebra(frame)
    expected = ""
    for i, atom in enumerate(alg.atoms()):
        rel = alg.atom_relation(atom)
        expected += f"{i} {atom.label()} {rel.count()}\n"
        expected += "".join(f"{a} {b}\n" for a, b in rel.pairs())
    built = []
    real = GroupRelationAlgebra.materialize

    def materialize(self, e):
        rel = real(self, e)
        built.append(weakref.ref(rel))
        return rel

    monkeypatch.setattr(GroupRelationAlgebra, "materialize", materialize)
    assert run_cli(capsys, "atoms", path, "--pairs") == (0, expected, "")
    gc.collect()
    assert len(built) == len(alg.atoms()) and all(ref() is None for ref in built)


def test_op_conv(capsys, z6z9_file):
    code, out, _ = run_cli(capsys, "op", z6z9_file, "conv", "0", "1", "1")
    assert code == 0
    assert out == "((1,0),2)\n"


def test_op_conv_check(capsys, z6z9_file):
    code, out, _ = run_cli(capsys, "op", z6z9_file, "conv", "0", "1", "1", "--check")
    assert code == 0
    assert out == "((1,0),2)\noracle: MATCH\n"


def test_op_comp_round_trip(capsys, z6z9_file):
    code, out, _ = run_cli(capsys, "op", z6z9_file, "comp", "0", "1", "1", "0", "1")
    assert code == 0
    assert out == "((0,0),2) ((0,0),5)\n"


def test_op_comp_square_absorption(capsys, z6z9_file):
    code, out, _ = run_cli(capsys, "op", z6z9_file, "comp", "0", "1", "1", "1", "1")
    assert code == 0
    assert out == "((0,1),2)\n"


def test_op_comp_check(capsys, z6z9_file):
    code, out, _ = run_cli(
        capsys, "op", z6z9_file, "comp", "0", "1", "1", "0", "1", "--check"
    )
    assert code == 0
    assert out.endswith("oracle: MATCH\n")


def test_op_arity_errors(capsys, z6z9_file):
    code, _, err = run_cli(capsys, "op", z6z9_file, "conv", "0", "1")
    assert code == 2
    assert "conv needs <x> <y> <alpha>" in err
    code, _, err = run_cli(capsys, "op", z6z9_file, "comp", "0", "1", "1")
    assert code == 2
    assert "comp needs <x> <y> <alpha> <z> <beta>" in err


def test_op_bad_alpha(capsys, z6z9_file):
    code, _, err = run_cli(capsys, "op", z6z9_file, "conv", "0", "1", "one")
    assert code == 2
    assert "atom index must be an integer" in err


def test_op_unknown_atom(capsys, z6z9_file):
    code, _, err = run_cli(capsys, "op", z6z9_file, "conv", "0", "1", "7")
    assert code == 1
    assert err == "no such atom ((0,1),7)\n"


def test_table_output(capsys, z6z9_file):
    code, out, _ = run_cli(capsys, "table", z6z9_file)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 22
    assert lines[0].startswith("cols: ((0,0),0) ((0,0),1)")
    # identity row: composing with ((0,0),0) reproduces the columns that
    # start at group 0 and annihilates the rest
    cells = lines[1].split(" : ")[1].split(" ")
    cols = lines[0][len("cols: ") :].split(" ")
    assert lines[1].startswith("((0,0),0) conv ((0,0),0) :")
    for col, cell in zip(cols, cells):
        if col.startswith("((0,"):
            assert cell == "{" + col + "}"
        else:
            assert cell == "{}"
    conv_of = {line.split(" ")[0]: line.split(" ")[2] for line in lines[1:]}
    assert conv_of["((0,1),1)"] == "((1,0),2)"


def table_by_repr(path: str) -> str:
    """What groupra table printed when every cell went through FrameElement.__repr__."""
    frame = parse_frame(Path(path).read_text())
    assert check_frame_reduced(frame).ok
    alg = GroupRelationAlgebra(frame)
    atoms = alg.atoms()
    out = ["cols: " + " ".join(a.label() for a in atoms)]
    for a in atoms:
        cells = [repr(alg.compose_atoms(a, b)) for b in atoms]
        out.append(f"{a.label()} conv {alg.converse_atom(a).label()} : " + " ".join(cells))
    return "\n".join(out) + "\n"


def test_table_prints_each_cell_as_its_repr(capsys, tmp_path):
    z60 = tmp_path / "z60x4.frame"
    kappa = {(i, j): 12 for i in range(4) for j in range(i + 1, 4)}
    z60.write_text(emit_frame(build_cyclic_frame([60] * 4, kappa)))
    shipped = sorted((Path(__file__).resolve().parent.parent / "frames").glob("*.frame"))
    for path in [*map(str, shipped), str(z60)]:
        code, out, err = run_cli(capsys, "table", path)
        assert (code, err) == (0, ""), path
        assert out == table_by_repr(path), path


def test_measure_reports_a_broken_engine_as_a_semantic_failure(capsys, monkeypatch, z6z9_file):
    monkeypatch.setattr(
        GroupRelationAlgebra, "converse_atom", lambda self, a: AtomIndex(a.y, a.x, 0)
    )
    code, out, err = run_cli(capsys, "measure", z6z9_file)
    assert (code, out, err) == (1, "", "square atom ((0,0),1) is not functional\n")


def test_measure_output(capsys, z6z9_file):
    code, out, _ = run_cli(capsys, "measure", z6z9_file)
    assert code == 0
    assert out == (
        "0 ((0,0),0) 6\n"
        "1 ((1,1),0) 9\n"
        "pair-dense: no\n"
        "singleton-dense: no\n"
    )


def test_decompose_single_block(capsys, z6z9_file):
    code, out, _ = run_cli(capsys, "decompose", z6z9_file)
    assert code == 0
    assert out == "components: 1\ncomponent 0: indices 0 1 ; atoms 21 ; simple yes\n"


def test_decompose_two_blocks(capsys, twoblock_file):
    code, out, _ = run_cli(capsys, "decompose", twoblock_file)
    assert code == 0
    assert out == (
        "components: 2\n"
        "component 0: indices 0 1 ; atoms 21 ; simple yes\n"
        "component 1: indices a b ; atoms 8 ; simple yes\n"
    )


def test_gen_cyclic_matches_emit(capsys, tmp_path, z6z9_file):
    kappa = tmp_path / "kappa.txt"
    kappa.write_text("6 3\n3 9\n")
    code, out, err = run_cli(capsys, "gen", "cyclic", "6,9", str(kappa))
    assert (code, err) == (0, "")
    with open(z6z9_file, encoding="utf-8") as handle:
        assert out == handle.read()


def test_gen_cyclic_refuses_bad_kappa(capsys, tmp_path):
    kappa = tmp_path / "kappa.txt"
    kappa.write_text("6 4\n4 9\n")
    code, out, err = run_cli(capsys, "gen", "cyclic", "6,9", str(kappa))
    assert code == 1
    assert out == ""
    assert err == "condition (i): 4 does not divide 6\n"


def test_gen_kappa_token_is_a_parse_error(capsys, tmp_path):
    kappa = tmp_path / "kappa.txt"
    kappa.write_text("6 3\n# x here is a comment\n3 x\n")
    code, out, err = run_cli(capsys, "gen", "cyclic", "6,9", str(kappa))
    assert (code, out) == (2, "")
    assert err == f"parse error: {kappa}: line 3: kappa entry must be an integer, got 'x'\n"


def test_gen_argument_token_is_a_parse_error(capsys, tmp_path):
    kappa = tmp_path / "kappa.txt"
    kappa.write_text("6 3\n3 9\n")
    code, out, err = run_cli(capsys, "gen", "cyclic", "6,x", str(kappa))
    assert (code, out) == (2, "")
    assert err == "parse error: orders: group order must be an integer, got 'x'\n"
    table = tmp_path / "z2.txt"
    table.write_text("0 1\n1 0\n")
    code, out, err = run_cli(capsys, "gen", "power", str(table), "0,y", "2")
    assert (code, out) == (2, "")
    assert err == "parse error: normal subgroup: element must be an integer, got 'y'\n"
    table.write_text("0 1\n1 z\n")
    code, out, err = run_cli(capsys, "gen", "power", str(table), "0", "2")
    assert (code, out) == (2, "")
    assert err == f"parse error: {table}: line 2: table entry must be an integer, got 'z'\n"


def test_gen_negative_subgroup_element_is_a_parse_error(capsys, tmp_path):
    table = tmp_path / "z2.txt"
    table.write_text("0 1\n1 0\n")
    code, out, err = run_cli(capsys, "gen", "power", str(table), "0,-1", "2")
    assert (code, out) == (2, "")
    assert err == "parse error: normal subgroup: element must be non-negative, got -1\n"


def test_gen_non_utf8_input_is_a_parse_error(capsys, tmp_path):
    kappa = tmp_path / "kappa.txt"
    kappa.write_bytes(b"6 3\n3 9 # caf\xe9\n")
    code, out, err = run_cli(capsys, "gen", "cyclic", "6,9", str(kappa))
    assert (code, out) == (2, "")
    assert err == f"parse error: {kappa}: line 2: not UTF-8 text (byte 13)\n"
    table = tmp_path / "z2.txt"
    table.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, "gen", "power", str(table), "0", "2")
    assert (code, out) == (2, "")
    assert err == f"parse error: {table}: line 1: not UTF-8 text (byte 0)\n"


def test_gen_power_block_order_does_not_matter(capsys, tmp_path):
    table = tmp_path / "z2.txt"
    table.write_text("0 1\n1 0\n")
    code, out, err = run_cli(capsys, "gen", "power", str(table), "0", "2", "1,0")
    assert (code, err) == (0, "")
    assert (code, out, err) == run_cli(capsys, "gen", "power", str(table), "0", "2", "0,1")


def test_gen_refused_table_exits_1(capsys, tmp_path):
    table = tmp_path / "loop5.txt"
    table.write_text("0 1 2 3 4\n1 0 3 4 2\n2 4 0 1 3\n3 2 4 0 1\n4 3 1 2 0\n")
    code, out, err = run_cli(capsys, "gen", "power", str(table), "0", "2")
    assert (code, out) == (1, "")
    assert err == "not associative at (1,1,2): (1*1)*2 = 2 but 1*(1*2) = 4\n"


def test_gen_refuses_an_order_over_the_cap(capsys, tmp_path):
    kappa = tmp_path / "k.txt"
    kappa.write_text("100000\n")
    code, out, err = run_cli(capsys, "gen", "cyclic", "100000", str(kappa))
    assert (code, out) == (1, "")
    assert err == f"group order 100000 exceeds the cap of {MAX_GROUP_ORDER}\n"


def test_gen_power_round_trip(capsys, tmp_path):
    table = tmp_path / "z2.txt"
    table.write_text("0 1\n1 0\n")
    code, out, _ = run_cli(capsys, "gen", "power", str(table), "0", "3")
    assert code == 0
    from groupra.fileformat import parse_frame

    frame = parse_frame(out)
    assert frame == build_power_frame(make_cyclic(2), 1, ["0", "1", "2"])
    assert emit_frame(frame) == out


def test_gen_power_without_copies(capsys, tmp_path):
    table = tmp_path / "z2.txt"
    table.write_text("0 1\n1 0\n")
    for count in ("0", "-1"):
        code, out, err = run_cli(capsys, "gen", "power", str(table), "0", count)
        assert (code, out, err) == (1, "", "empty block\n")


def test_gen_power_refuses_copies_over_the_cap(capsys, tmp_path):
    table = tmp_path / "z2.txt"
    table.write_text("0 1\n1 0\n")
    code, out, err = run_cli(capsys, "gen", "power", str(table), "0", "100000")
    assert (code, out) == (1, "")
    assert err == f"power frame of 100000 copies exceeds the cap of {MAX_POWER_COPIES}\n"


def test_gen_power_refuses_a_huge_count_before_building_ids(capsys, tmp_path):
    table = tmp_path / "z2.txt"
    table.write_text("0 1\n1 0\n")
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "gen", "power", str(table), "0", "1000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err == f"power frame of 1000000 copies exceeds the cap of {MAX_POWER_COPIES}\n"
    assert peak < 1 << 20, peak


def test_gen_power_with_blocks(capsys, tmp_path):
    table = tmp_path / "z2.txt"
    table.write_text("0 1\n1 0\n")
    code, out, _ = run_cli(capsys, "gen", "power", str(table), "0,1", "3", "0,1;2")
    assert code == 0
    from groupra.fileformat import parse_frame

    frame = parse_frame(out)
    assert len(frame.blocks) == 2
    assert not frame.related("0", "2")


def test_gen_output_validates(capsys, tmp_path):
    kappa = tmp_path / "kappa.txt"
    kappa.write_text("4 2 2\n2 8 2\n2 2 6\n")
    code, out, _ = run_cli(capsys, "gen", "cyclic", "4,8,6", str(kappa))
    assert code == 0
    path = tmp_path / "gen.frame"
    path.write_text(out)
    code, out, _ = run_cli(capsys, "validate", str(path), "--full")
    assert code == 0
    assert out == "frame check (full): PASS\n"


def test_verify_all_sweeps_pass(capsys, z6z9_file):
    code, out, _ = run_cli(capsys, "verify", z6z9_file)
    assert code == 0
    lines = out.splitlines()
    assert lines == [
        "partition: PASS",
        "converse-oracle: PASS",
        "composition-oracle: PASS",
        "involution: PASS",
        "associativity: PASS",
        "identity-laws: PASS",
        "boolean-laws: PASS",
        "fast-paths: PASS",
        "image-equations: PASS",
    ]


def test_verify_prints_each_failure_under_its_sweep(capsys, monkeypatch, z6z9_file):
    import groupra.verification

    sweeps = list(groupra.verification.VERIFY_SWEEPS)
    at = [name for name, _ in sweeps].index("fast-paths")
    failures = [
        "fast path differs at ((0,0),1);((0,1),2)",
        "fast path differs at ((1,1),0);((1,0),1)",
    ]
    sweeps[at] = ("fast-paths", lambda alg: failures)
    monkeypatch.setattr(groupra.verification, "VERIFY_SWEEPS", sweeps)
    code, out, err = run_cli(capsys, "verify", z6z9_file)
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "partition: PASS",
        "converse-oracle: PASS",
        "composition-oracle: PASS",
        "involution: PASS",
        "associativity: PASS",
        "identity-laws: PASS",
        "boolean-laws: PASS",
        "fast-paths: FAIL",
        "  fast path differs at ((0,0),1);((0,1),2)",
        "  fast path differs at ((1,1),0);((1,0),1)",
        "image-equations: PASS",
    ]


def test_verify_multiblock(capsys, twoblock_file):
    code, out, _ = run_cli(capsys, "verify", twoblock_file)
    assert code == 0
    assert "FAIL" not in out


def test_commands_reject_corrupted_frame(capsys, corrupted_file):
    for command in ("atoms", "measure", "decompose", "verify"):
        code, out, _ = run_cli(capsys, command, corrupted_file)
        assert code == 1
        assert out.splitlines()[0] == "frame check (reduced): FAIL"


def test_usage_error_raises_system_exit(capsys):
    with pytest.raises(SystemExit):
        main(["no-such-command"])
    capsys.readouterr()


def call_cli(capsys, argv):
    """run_cli, with a SystemExit out of main caught and returned as the code."""
    try:
        return run_cli(capsys, *argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return ("SystemExit", exc.code), captured.out, captured.err


def test_one_process_answers_many_queries_like_lone_calls(capsys, z6z9_file):
    sequence = [
        ["op", z6z9_file, "comp", "0", "1", "1", "0", "1", "--check"],
        ["op", z6z9_file, "conv", "0", "1", "1"],
        ["op", z6z9_file, "bogus"],
        ["validate", "--full", z6z9_file],
        ["validate", z6z9_file],
        ["op", z6z9_file, "comp", "0", "1", "1", "0", "1", "--check"],
    ]
    first = [call_cli(capsys, argv) for argv in sequence]
    assert first[0] == (0, "((0,0),2) ((0,0),5)\noracle: MATCH\n", "")
    assert first[1] == (0, "((1,0),2)\n", "")
    assert first[2][0] == ("SystemExit", 2)
    assert "invalid choice: 'bogus'" in first[2][2]
    assert first[3] == (0, "frame check (full): PASS\n", "")
    assert first[4] == (0, "frame check (reduced): PASS\n", "")
    assert first[5] == first[0]
    # each call alone, in reverse order, prints what it printed in sequence
    assert [call_cli(capsys, argv) for argv in reversed(sequence)] == first[::-1]


def parse_with(parser, argv, capsys):
    """The namespace parser.parse_args(argv) returns, or its exit code and output."""
    try:
        return vars(parser.parse_args(argv))
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


@pytest.mark.parametrize(
    "tail",
    [
        [],
        ["-h"],
        ["f"],
        ["f", "--bogus"],
        ["--full", "f"],
        ["--pairs", "--cosets", "f"],
        ["f", "comp", "0", "1", "1", "0", "1", "--check"],
        ["f", "conv", "0", "1", "1"],
        ["f", "bogus"],
        ["cyclic", "6,9", "k.txt"],
        ["power", "m.txt", "0,3", "2", "0,1"],
        ["power", "m.txt", "0", "two"],
    ],
)
def test_parser_with_one_command_acts_like_the_full_parser(capsys, tail):
    full = _build_parser()
    for command in ("validate", "atoms", "op", "table", "measure", "decompose", "gen", "verify"):
        argv = [command, *tail]
        assert parse_with(_build_parser(command), argv, capsys) == parse_with(full, argv, capsys)


def test_argv_without_a_command_gets_the_full_parser(capsys):
    commands = "{validate,atoms,op,table,measure,decompose,gen,verify}"
    code, out, _ = call_cli(capsys, ["-h"])
    assert code == ("SystemExit", 0)
    assert commands in out and "apply converse or composition to atoms" in out
    code, _, err = call_cli(capsys, ["opp", "f"])
    assert code == ("SystemExit", 2)
    assert "invalid choice: 'opp' (choose from 'validate', 'atoms', 'op'," in err
    code, _, err = call_cli(capsys, [])
    assert code == ("SystemExit", 2)
    assert err.endswith("error: the following arguments are required: command\n")


def test_module_entry_point_runs_the_cli(tmp_path):
    path = tmp_path / "nonsense.frame"
    path.write_text("blart\n")
    src = str(Path(groupra.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "groupra.cli", "validate", str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "parse error: line 1: unknown directive 'blart'\n"


# (family, input file text, arguments after the file): the file is a kappa
# matrix for cyclic, a group table for power; the arguments are the orders
# (which precede the file on the command line) or the normal subgroup,
# the number of copies and the blocks
GEN_INPUTS = [
    ("cyclic", "6 3\n3 9\n", ["6,9"]),
    ("cyclic", "4 2 2\n2 8 2\n2 2 6\n", ["4,8,6"]),
    ("cyclic", "# two blocks\n6 0 3\n0 4 0\n3 0 9\n", ["6,4,9"]),
    ("power", "0 1\n1 0\n", ["0", "2"]),
    ("power", "0 1 2 3\n1 0 3 2\n2 3 0 1\n3 2 1 0\n", ["0,1", "3", "0,1;2"]),
    ("power", "0 1 2\n1 2 0\n2 0 1\n", ["0,1,2", "4", "0,1;2,3"]),
]
GEN_VOCABULARY = [
    *"0 1 2 3 4 5 6 8 9 12 -1 1025 x # , ;".split(),
    "\n",
    "",
]
GEN_COUNTS = ["-1", "0", "1", "2", "3", "4", "x", ""]


def _mutate_tokens(tokens: list[str], rng: random.Random) -> None:
    kind = rng.choice(["replace", "delete", "insert"])
    if kind == "insert":
        tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(GEN_VOCABULARY))
    elif tokens and kind == "replace":
        tokens[rng.randrange(len(tokens))] = rng.choice(GEN_VOCABULARY)
    elif tokens:
        del tokens[rng.randrange(len(tokens))]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(GEN_INPUTS), st.randoms(use_true_random=False))
def test_mutated_gen_inputs_exit_cleanly(case, rng):
    """One to three mutations of the input file's tokens or of an argument:
    ``gen`` exits 0 with a frame the reader takes back, or 1 or 2 with a
    message and no traceback; a malformed count is argparse's usage error."""
    family, text, arguments = case
    text_tokens = [t for t in text.replace("\n", " \n ").split(" ") if t]
    # arguments as integer and separator tokens; -1 stands for the file
    arg_tokens = [[t for t in re.split(r"([,;])", arg) if t] for arg in arguments]
    count_at = 1 if family == "power" else None
    for _ in range(rng.randint(1, 3)):
        target = rng.randrange(-1, len(arg_tokens))
        if target == -1:
            _mutate_tokens(text_tokens, rng)
        elif target == count_at:
            arg_tokens[target] = [rng.choice(GEN_COUNTS)]
        else:
            _mutate_tokens(arg_tokens[target], rng)
    args = ["".join(tokens) for tokens in arg_tokens]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(" ".join(text_tokens))
        if family == "cyclic":
            argv = ["gen", "cyclic", args[0], path, *args[1:]]
        else:
            argv = ["gen", "power", path, *args]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2, argv
                code = 2
    assert code in (0, 1, 2), argv
    if code == 0:
        assert emit_frame(parse_frame(out.getvalue())) == out.getvalue()
    else:
        assert out.getvalue() == "", argv
        assert err.getvalue() and "Traceback" not in err.getvalue(), argv
