"""Command-line interface.

Exit codes: 0 success, 1 semantic failure (bad frame, refused build,
failed verification), 2 parse or usage error.  All output is sorted and
reproducible.

Each call of ``main`` builds its argument parser afresh, with only the
subcommand its argv names (see ``_build_parser``), so it may be called
repeatedly in one process.

Importing this module loads the parser, the reader and the engine that
every command reads a frame with (``fileformat``, ``frames``, ``groups``,
``algebra`` and ``relations``).  A module only one command needs is
imported in that command's handler: ``builders`` in ``gen`` and
``verification`` in ``verify``.
"""

from __future__ import annotations

import argparse
import sys
from typing import NoReturn, Optional, Sequence

from .algebra import AtomIndex, GroupRelationAlgebra
from .errors import FrameBuildError, FrameFormatError
from .fileformat import _content_bodies, _int, _ints, _read_text, emit_frame, parse_frame
from .frames import Frame, check_frame_full, check_frame_reduced
from .groups import _fmt_mask, mask_of, validate_table
from .relations import rel_compose, rel_converse

__all__ = ["main", "run"]


def _load_frame(path: str) -> Frame:
    return parse_frame(_read_text(path))


def _load_algebra(path: str) -> GroupRelationAlgebra:
    frame = _load_frame(path)
    report = check_frame_reduced(frame)
    if not report.ok:
        for line in report.lines():
            print(line)
        raise SystemExit(1)
    return GroupRelationAlgebra(frame)


def _atom_arg(alg: GroupRelationAlgebra, x: str, y: str, alpha_token: str) -> AtomIndex:
    try:
        alpha = int(alpha_token)
    except ValueError:
        print(f"atom index must be an integer, got {alpha_token!r}", file=sys.stderr)
        raise SystemExit(2) from None
    atom = AtomIndex(x, y, alpha)
    if atom not in alg.all_atoms:
        print(f"no such atom (({x},{y}),{alpha})", file=sys.stderr)
        raise SystemExit(1)
    return atom


def _cmd_validate(args: argparse.Namespace) -> int:
    frame = _load_frame(args.file)
    report = check_frame_full(frame) if args.full else check_frame_reduced(frame)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def _cmd_atoms(args: argparse.Namespace) -> int:
    alg = _load_algebra(args.file)
    for i, atom in enumerate(alg.atoms()):
        record = alg.frame.records[(atom.x, atom.y)]
        # kappa H-cosets, each |H| rows by one K-coset: |G_x|*|K| pairs
        size = alg.frame.groups[atom.x].order * record.k.subgroup.bit_count()
        line = f"{i} {atom.label()} {size}"
        if args.cosets:
            line += (
                f" coset={_fmt_mask(record.h.cosets[atom.alpha])}"
                f" image={_fmt_mask(record.k.cosets[atom.alpha])}"
            )
        print(line)
        if args.pairs:
            for a, b in alg.atom_relation(atom).pairs():
                print(f"{a} {b}")
    return 0


def _cmd_op(args: argparse.Namespace) -> int:
    alg = _load_algebra(args.file)
    if args.kind == "conv":
        if len(args.args) != 3:
            print("conv needs <x> <y> <alpha>", file=sys.stderr)
            return 2
        atom = _atom_arg(alg, args.args[0], args.args[1], args.args[2])
        result = alg.converse_atom(atom)
        print(result.label())
        if args.check:
            ok = alg.atom_relation(result) == rel_converse(alg.atom_relation(atom))
            print(f"oracle: {'MATCH' if ok else 'MISMATCH'}")
            return 0 if ok else 1
        return 0
    if len(args.args) != 5:
        print("comp needs <x> <y> <alpha> <z> <beta>", file=sys.stderr)
        return 2
    x, y, alpha, z, beta = args.args
    first = _atom_arg(alg, x, y, alpha)
    second = _atom_arg(alg, y, z, beta)
    result = alg.compose_atoms(first, second)
    labels = [a.label() for a in result.sorted_atoms()]
    print(" ".join(labels) if labels else "empty")
    if args.check:
        expected = rel_compose(alg.atom_relation(first), alg.atom_relation(second))
        ok = alg.materialize(result) == expected
        print(f"oracle: {'MATCH' if ok else 'MISMATCH'}")
        return 0 if ok else 1
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    alg = _load_algebra(args.file)
    atoms = alg.atoms()
    # each cell prints as repr would, from labels and sort keys made once
    label = {a: a.label() for a in atoms}
    key = {a: alg.atom_key(a) for a in atoms}.__getitem__
    empty = alg.zero()

    def cell(a: AtomIndex, b: AtomIndex) -> str:
        product = alg.compose_atoms(a, b)
        if product is empty:
            return "{}"
        return "{" + ",".join(label[c] for c in sorted(product.atoms, key=key)) + "}"

    print("cols: " + " ".join(label.values()))
    for a in atoms:
        cells = [cell(a, b) for b in atoms]
        print(f"{label[a]} conv {label[alg.converse_atom(a)]} : " + " ".join(cells))
    return 0


def _cmd_measure(args: argparse.Namespace) -> int:
    alg = _load_algebra(args.file)
    try:
        report = alg.measure_report()
    except RuntimeError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    for i, entry in enumerate(report.entries):
        print(f"{i} {entry.atom.label()} {entry.measure}")
    print(f"pair-dense: {'yes' if report.pair_dense else 'no'}")
    print(f"singleton-dense: {'yes' if report.singleton_dense else 'no'}")
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    alg = _load_algebra(args.file)
    components = alg.decompose()
    print(f"components: {len(components)}")
    for i, component in enumerate(components):
        sub = GroupRelationAlgebra(component)
        simple = "yes" if sub.is_simple() else "no"
        ids = " ".join(component.order)
        print(f"component {i}: indices {ids} ; atoms {len(sub.atoms())} ; simple {simple}")
    return 0


def _parse_failure(source: str, message: str) -> NoReturn:
    print(f"parse error: {source}: {message}", file=sys.stderr)
    raise SystemExit(2)


def _read_matrix(path: str, what: str) -> list[list[int]]:
    """Integer rows of a file, read with the frame format's comment rules."""
    try:
        bodies = _content_bodies(_read_text(path))
        return [_ints(body.split(), line, what) for line, body in bodies]
    except FrameFormatError as exc:
        _parse_failure(path, str(exc))


def _int_list(arg: str, source: str, what: str) -> list[int]:
    """The integers of a comma-separated argument."""
    try:
        return [_int(t, 0, what) for t in arg.split(",") if t]
    except FrameFormatError as exc:
        _parse_failure(source, exc.reason)


def _cmd_gen(args: argparse.Namespace) -> int:
    from .builders import build_cyclic_frame, build_power_frame, check_power_copies

    try:
        if args.family == "cyclic":
            orders = _int_list(args.spec, "orders", "group order")
            frame = build_cyclic_frame(orders, _read_matrix(args.extra, "kappa entry"))
        else:
            m = validate_table(_read_matrix(args.spec, "table entry"), "M")
            n_elems = _int_list(args.extra, "normal subgroup", "element")
            negative = next((e for e in n_elems if e < 0), None)
            if negative is not None:
                _parse_failure("normal subgroup", f"element must be non-negative, got {negative}")
            n_mask = mask_of(n_elems)
            check_power_copies(args.count)
            ids = [str(i) for i in range(args.count)]
            if args.blocks:
                blocks = [part.split(",") for part in args.blocks.split(";")]
            else:
                blocks = [ids]
            frame = build_power_frame(m, n_mask, ids, blocks)
    except (FrameBuildError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    sys.stdout.write(emit_frame(frame))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verification import verify_algebra

    alg = _load_algebra(args.file)
    bad = False
    for name, failures in verify_algebra(alg):
        print(f"{name}: {'PASS' if not failures else 'FAIL'}")
        for failure in failures:
            print(f"  {failure}")
        bad = bad or bool(failures)
    return 1 if bad else 0


def _flag(help_text: str) -> dict:
    return {"action": "store_true", "help": help_text}


# name -> (help, handler, arguments), in the order `groupra -h` lists them
_COMMANDS = {
    "validate": (
        "run the frame check on a frame file",
        _cmd_validate,
        [("file", {}), ("--full", _flag("sweep all triples, not just ascending"))],
    ),
    "atoms": (
        "list atoms with cardinalities",
        _cmd_atoms,
        [
            ("file", {}),
            ("--pairs", _flag("dump each atom's global-id pairs")),
            ("--cosets", _flag("show the defining cosets")),
        ],
    ),
    "op": (
        "apply converse or composition to atoms",
        _cmd_op,
        [
            ("file", {}),
            ("kind", {"choices": ("conv", "comp")}),
            ("args", {"nargs": "*"}),
            ("--check", _flag("cross-check against the oracle")),
        ],
    ),
    "table": ("full composition table with converse column", _cmd_table, [("file", {})]),
    "measure": ("sub-identity atoms, measures, density flags", _cmd_measure, [("file", {})]),
    "decompose": ("split into per-block components", _cmd_decompose, [("file", {})]),
    "gen": (
        "generate a frame file",
        _cmd_gen,
        [
            ("family", {"choices": ("cyclic", "power")}),
            ("spec", {"help": "cyclic: comma-separated orders; power: group table file"}),
            ("extra", {"help": "cyclic: kappa matrix file; power: comma-separated subgroup"}),
            ("count", {"nargs": "?", "type": int, "default": 1, "help": "power: number of copies"}),
            ("blocks", {"nargs": "?", "help": "power: blocks like 0,1;2"}),
        ],
    ),
    "verify": ("run the full verification sweeps", _cmd_verify, [("file", {})]),
}


def _build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The argument parser, with every subcommand or with ``command`` alone.

    Each subcommand is a whole ``ArgumentParser``, so a parser with one
    costs about a third of one with all eight.  For an argv that starts
    with ``command`` it parses, prints and exits exactly as the full one
    does, since its usage line still names every command.  ``main`` uses
    the full parser for any other argv: -h, no command or an unknown one.
    """
    parser = argparse.ArgumentParser(
        prog="groupra",
        description="Group relation algebras: validate frames, list atoms, "
        "compute operations, and generate frame files.",
    )
    # the metavar the full parser derives from its choices
    metavar = "{" + ",".join(_COMMANDS) + "}" if command else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, func, arguments) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            for flag, options in arguments:
                p.add_argument(flag, **options)
            p.set_defaults(func=func)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser has no option but -h, so a command comes first
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except FrameFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
