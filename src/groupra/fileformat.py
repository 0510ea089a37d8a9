"""Reading and writing frame files.

The format is line-oriented; ``#`` starts a comment and blank lines are
ignored:

    group <id> cyclic <n>
    group <id> table <n>     (followed by n rows of n indices)
    block <id> <id> ...
    iso <x> <y>              (x declared before y)
    H <elements of H>
    K <elements of K>
    map <h>:<k> ...          (one entry per H-coset, canonical order;
                              h a representative of that coset, k any
                              element of its image K-coset)
    end                      (alone on its line)

Which layer checks what: the reader enumerates H's and K's cosets to read
a record.  It checks syntax, ids, blocks, element ranges and table groups,
and maps representatives onto cosets, which needs H and K normal and the
map a bijection fixing coset 0 (groups.map_defect, the map-form checks that
check_quotient_iso runs too).  Frame then checks the record: it asks
enumerate_cosets again and gets the reader's systems back, since each group
keeps the systems it has proved, and reads the homomorphism off the paired
coset lists (groups.homomorphism_defect).  That proof checks the cosets of
G_x's generators only; the scan over every pair of cosets runs just to name
the first failing pair of a map it rejects, which is reported at that iso's
``map`` line.

A ``group`` line whose order exceeds groups.MAX_GROUP_ORDER is refused at
that line, before any table row is read or any group is built.  The reader
keeps each line's text before its comment, equal lines sharing one string
(``_content_bodies``), and reads those lines once, in order: an iso block
is kept as one record of its converted parts.  A directive is split where
it is read; only a table row is split once per distinct text, into its
entries.  A row is converted to integers when it is first read, so its
tokens live only that long, and none is kept while a table is proved or
the Frame is built.  The conversion looks each token up in a dict of the
canonical spellings "0".."n-1" of an order-n table, built once per order
and parse.  A row with any other token (007, +5, -1, a Unicode digit, a
token that is no integer, an entry out of range) is converted again by
int(), token by token, so it is accepted or refused exactly as int()
decides, and an entry out of range reaches validate_table, which names it.
Each distinct group declaration is built once per file: ``cyclic n`` once
per n, and a table once per distinct list of entries, validated once, so
copies that differ only in spacing or in the spelling of an entry (007
against 7) share one group.  Every table id still gets its own
FiniteGroup, labelled T<id> (FiniteGroup.relabelled): identical tables
share their rows and also their proofs, the coset systems of the subgroups
proved normal and the generating set, so a subgroup is proved once per
distinct table.  A proof that fails is not kept, so each error names the
id it is about.

Files are read as UTF-8 (``_read_text``), and a byte that does not decode
is refused at its line.  Lines end at \\r\\n, \\r or \\n and nowhere else
(``_lines``), so a line number is the one an editor or grep shows.  The
command line reads its kappa matrices and group tables through the same
routines, so they follow the same text rules.

Emission is normalized: declaration order, canonical representatives,
single spaces.  Emitting a parsed emission reproduces it byte for byte.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .errors import (
    FrameFormatError,
    GroupTableError,
    InvalidFrameError,
    NotASubgroupError,
    NotNormalError,
)
from .frames import Frame, IsoRecord
from .groups import (
    CosetSystem,
    FiniteGroup,
    Mask,
    check_group_order,
    elements,
    enumerate_cosets,
    is_cyclic_table,
    make_cyclic,
    map_defect,
    mask_of,
    validate_table,
)

__all__ = ["parse_frame", "emit_frame"]


class _IsoBlock(NamedTuple):
    """One iso block as read: its line and pair, then the line and values
    of its H, K and map parts."""

    line: int
    x: str
    y: str
    h_line: int
    h_elems: list[int]
    k_line: int
    k_elems: list[int]
    map_line: int
    entries: list[tuple[int, int]]


def _int(token: str, line: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FrameFormatError(line, f"{what} must be an integer, got {token!r}") from None


def _ints(tokens: list[str], line: int, what: str) -> list[int]:
    """Tokens as integers; a FrameFormatError names the first bad one."""
    try:
        return list(map(int, tokens))
    except ValueError:
        return [_int(t, line, what) for t in tokens]


def _map_entry(token: str, line: int) -> tuple[int, int]:
    """One h:k entry of a map line; a FrameFormatError names its fault."""
    h_part, sep, k_part = token.partition(":")
    if not sep:
        raise FrameFormatError(line, f"map entry {token!r} lacks ':'")
    return _int(h_part, line, "map representative"), _int(k_part, line, "map image")


def _map_entries(tokens: list[str], line: int) -> list[tuple[int, int]]:
    """The h:k entries of a map line; a FrameFormatError names the first bad one."""
    try:
        return [(int(h), int(k)) for h, _, k in (t.partition(":") for t in tokens)]
    except ValueError:  # a token without ':' has k == "", which int refuses too
        return [_map_entry(t, line) for t in tokens]


def _read_text(path: str) -> str:
    """A file's text; a byte that is not UTF-8 is a FrameFormatError at its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the text before the bad byte decodes; its last line is the bad byte's
        line = len(_lines(data[: exc.start].decode("utf-8")))
        raise FrameFormatError(line, f"not UTF-8 text (byte {exc.start})") from None


def _lines(text: str) -> list[str]:
    """The lines of text, broken only at \\r\\n, \\r and \\n.

    str.splitlines also breaks at form feed, \\x1c-\\x1e, \\x85 and
    U+2028/U+2029, which would number lines unlike any editor or grep, and
    end a comment early.
    """
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _content_bodies(text: str) -> list[tuple[int, str]]:
    """(line number, body) of each line that is not blank once its comment goes.

    A line's body is its text before any ``#``; equal lines share one body.
    """
    out = []
    bodies: dict[str, str] = {}
    for i, raw in enumerate(_lines(text), 1):
        body = bodies.get(raw)
        if body is None:
            body = bodies[raw] = raw.split("#", 1)[0]
        if body and not body.isspace():
            out.append((i, body))
    return out


def parse_frame(text: str) -> Frame:
    """Parse a frame file; FrameFormatError carries the offending line."""
    bodies = _content_bodies(text)
    rest = iter(bodies)
    groups: dict[str, FiniteGroup] = {}
    group_lines: dict[str, int] = {}
    blocks: list[tuple[int, list[str]]] = []
    iso_blocks: list[_IsoBlock] = []
    # one build per distinct declaration: cyclic groups by order, tables by
    # entries, keyed by the identities of their interned rows
    cyclic: dict[int, FiniteGroup] = {}
    tables: dict[tuple[int, ...], FiniteGroup] = {}
    # one split per distinct table row text, into its entries, and one tuple
    # per distinct row of entries, shared by every text that spells it
    table_rows: dict[str, tuple[int, ...]] = {}
    interned: dict[tuple[int, ...], tuple[int, ...]] = {}
    # the canonical spelling of each entry of an order-n table, per order n
    digits_of: dict[int, dict[str, int]] = {}

    def take_body() -> tuple[int, str]:
        entry = next(rest, None)
        if entry is None:  # a read follows a content line, so there is a last one
            raise FrameFormatError(bodies[-1][0], "unexpected end of file")
        return entry

    def take_part(keyword: str) -> tuple[int, list[str]]:
        """The next line's number and arguments, which keyword must begin."""
        line, body = take_body()
        tokens = body.split()
        if tokens[0] != keyword:
            raise FrameFormatError(line, f"expected {keyword!r} here, got {tokens[0]!r}")
        return line, tokens[1:]

    def take_table(n: int, line: int, label: str) -> FiniteGroup:
        """The group of the next n rows, built once per distinct table.

        A row is split once per distinct text, into its entries, and equal
        rows of entries share one interned tuple.  A table is known by its
        rows' identities, so copies that differ only in spacing or in the
        spelling of an entry share one group, and a repeated table costs
        O(n) to look up, not a hash of its n*n entries.  Each row's
        length is checked before its entries, and both before the next row
        is read, so the first fault in reading order is the one reported.
        A row whose tokens all spell 0..n-1 canonically is converted by
        dict lookups; any other row goes through _ints (see the module
        docstring).
        """
        digits = digits_of.get(n)
        if digits is None:
            digits = digits_of[n] = {str(i): i for i in range(n)}
        rows = []
        for _ in range(n):
            row_line, body = take_body()
            entries = table_rows.get(body)
            items = body.split() if entries is None else entries
            if len(items) != n:
                raise FrameFormatError(row_line, f"table row has {len(items)} entries, expected {n}")
            if entries is None:
                try:
                    entries = tuple(map(digits.__getitem__, items))
                except KeyError:
                    entries = tuple(_ints(items, row_line, "table entry"))
                table_rows[body] = entries = interned.setdefault(entries, entries)
            rows.append(entries)
        key = tuple(map(id, rows))
        shared = tables.get(key)
        if shared is None:
            try:
                shared = tables[key] = validate_table(rows, label)
            except GroupTableError as exc:
                raise FrameFormatError(line, f"not a group table: {exc}") from None
        return shared.relabelled(label)

    for line, body in rest:
        tokens = body.split()
        keyword = tokens[0]
        if keyword == "group":
            if len(tokens) != 4 or tokens[2] not in ("cyclic", "table"):
                raise FrameFormatError(line, "expected 'group <id> cyclic|table <n>'")
            gid = tokens[1]
            if gid in groups:
                raise FrameFormatError(line, f"duplicate group id {gid!r}")
            n = _int(tokens[3], line, "group order")
            try:
                check_group_order(n)
            except GroupTableError as exc:
                raise FrameFormatError(line, str(exc)) from None
            if tokens[2] == "cyclic":
                if n not in cyclic:
                    cyclic[n] = make_cyclic(n)
                groups[gid] = cyclic[n]
            else:
                groups[gid] = take_table(n, line, f"T{gid}")
            group_lines[gid] = line
        elif keyword == "block":
            if len(tokens) < 2:
                raise FrameFormatError(line, "block needs at least one id")
            for gid in tokens[1:]:
                if gid not in groups:
                    raise FrameFormatError(line, f"unknown id {gid!r}")
            blocks.append((line, tokens[1:]))
        elif keyword == "iso":
            if len(tokens) != 3:
                raise FrameFormatError(line, "expected 'iso <x> <y>'")
            h_line, h = take_part("H")
            h_elems = _ints(h, h_line, "H element")
            k_line, k = take_part("K")
            k_elems = _ints(k, k_line, "K element")
            map_line, m = take_part("map")
            entries = _map_entries(m, map_line)
            end_line, extra = take_part("end")
            if extra:
                raise FrameFormatError(end_line, "'end' takes no arguments")
            iso_blocks.append(
                _IsoBlock(line, *tokens[1:], h_line, h_elems, k_line, k_elems, map_line, entries)
            )
        else:
            raise FrameFormatError(line, f"unknown directive {keyword!r}")

    # blocks must partition the declared ids
    owner: dict[str, int] = {}
    for line, members in blocks:
        for gid in members:
            if gid in owner:
                raise FrameFormatError(line, f"id {gid!r} already belongs to a block")
            owner[gid] = line
    for gid in groups:
        if gid not in owner:
            raise FrameFormatError(group_lines[gid], f"id {gid!r} belongs to no block")

    declared = list(groups)
    position = {gid: i for i, gid in enumerate(declared)}
    isos: dict[tuple[str, str], IsoRecord] = {}
    for d in iso_blocks:
        for gid in (d.x, d.y):
            if gid not in groups:
                raise FrameFormatError(d.line, f"unknown id {gid!r}")
        if position[d.y] <= position[d.x]:
            raise FrameFormatError(d.line, f"iso requires {d.x!r} declared before {d.y!r}")
        if owner[d.x] != owner[d.y]:
            raise FrameFormatError(d.line, f"iso ({d.x},{d.y}) crosses blocks")
        if (d.x, d.y) in isos:
            raise FrameFormatError(d.line, f"duplicate iso for ({d.x},{d.y})")
        isos[(d.x, d.y)] = _build_record(groups, d)

    for line, members in blocks:
        ordered = sorted(members, key=position.__getitem__)
        for i, x in enumerate(ordered):
            for y in ordered[i + 1 :]:
                if (x, y) not in isos:
                    raise FrameFormatError(line, f"missing iso for in-block pair ({x},{y})")

    ordered_blocks = [members for _, members in blocks]
    try:
        return Frame(groups, ordered_blocks, isos)
    except InvalidFrameError as exc:  # every other fault was reported above
        line = next(d.map_line for d in iso_blocks if (d.x, d.y) == exc.pair)
        raise FrameFormatError(line, f"map is not a quotient isomorphism: {exc.witness}") from None


def _cosets(g: FiniteGroup, sub: Mask, line: int, what: str, gid: str) -> CosetSystem:
    try:
        return enumerate_cosets(g, sub)
    except NotASubgroupError as exc:
        raise FrameFormatError(line, str(exc)) from None
    except NotNormalError:
        raise FrameFormatError(line, f"{what} is not normal in group {gid!r}") from None


def _build_record(groups: dict[str, FiniteGroup], d: _IsoBlock) -> IsoRecord:
    gx, gy = groups[d.x], groups[d.y]
    for e in d.h_elems:
        if not 0 <= e < gx.order:
            raise FrameFormatError(d.h_line, f"element {e} outside group {d.x!r}")
    for e in d.k_elems:
        if not 0 <= e < gy.order:
            raise FrameFormatError(d.k_line, f"element {e} outside group {d.y!r}")
    h_sys = _cosets(gx, mask_of(d.h_elems), d.h_line, "H", d.x)
    k_sys = _cosets(gy, mask_of(d.k_elems), d.k_line, "K", d.y)
    if h_sys.count != k_sys.count:
        raise FrameFormatError(
            d.line, f"incompatible quotients: {h_sys.count} H-cosets vs {k_sys.count} K-cosets"
        )
    if len(d.entries) != h_sys.count:
        raise FrameFormatError(
            d.map_line, f"map has {len(d.entries)} entries, expected {h_sys.count}"
        )
    mapping = []
    for gamma, (h_rep, k_rep) in enumerate(d.entries):
        if not 0 <= h_rep < gx.order or not h_sys.cosets[gamma] >> h_rep & 1:
            raise FrameFormatError(
                d.map_line, f"entry {gamma}: {h_rep} does not represent H-coset {gamma}"
            )
        if not 0 <= k_rep < gy.order:
            raise FrameFormatError(d.map_line, f"entry {gamma}: {k_rep} outside group {d.y!r}")
        mapping.append(k_sys.coset_of(k_rep))
    # image order is a CosetSystem only for a bijection that fixes coset 0
    fault = map_defect(mapping, k_sys.count)
    if fault is not None:
        raise FrameFormatError(d.map_line, f"map is not a quotient isomorphism: {fault}")
    return IsoRecord(d.x, d.y, h_sys, k_sys.permuted(mapping))


def emit_frame(frame: Frame) -> str:
    """Normalized text for a frame; parse(emit(f)) reproduces f."""
    lines: list[str] = []
    for x in frame.order:
        g = frame.groups[x]
        if is_cyclic_table(g):
            lines.append(f"group {x} cyclic {g.order}")
        else:
            lines.append(f"group {x} table {g.order}")
            lines.extend(" ".join(map(str, row)) for row in g.op)
    for block in frame.blocks:
        lines.append("block " + " ".join(block))
    for (x, y), record in frame.records.items():
        if (x, y) not in frame.isos:
            continue
        lines.append(f"iso {x} {y}")
        lines.append("H " + " ".join(map(str, elements(record.h.subgroup))))
        lines.append("K " + " ".join(map(str, elements(record.k.subgroup))))
        entries = [f"{h}:{k}" for h, k in zip(record.h.reps, record.k.reps)]
        lines.append("map " + " ".join(entries))
        lines.append("end")
    return "\n".join(lines) + "\n"
