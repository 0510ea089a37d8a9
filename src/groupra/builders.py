"""Ready-made frame families.

Each builder re-checks its output with check_frame_reduced before handing
it over, so the returned frames are immediately usable by the algebra.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from typing import Iterator, Mapping, Optional, Sequence, Union

from .errors import FrameBuildError
from .frames import Frame, IsoRecord, check_frame_reduced
from .groups import CosetSystem, FiniteGroup, Mask, enumerate_cosets, make_cyclic, mask_of

__all__ = [
    "MAX_POWER_COPIES",
    "build_complex_algebra_frame",
    "build_power_frame",
    "build_cyclic_frame",
    "check_power_copies",
    "cyclic_iso_record",
    "merge_frames",
]

KappaSpec = Union[Mapping[tuple[int, int], int], Sequence[Sequence[int]]]

# The most copies a power frame may have.  A block of k copies holds
# k(k-1)/2 records and its frame check walks k(k-1)(k-2)/6 triples.
MAX_POWER_COPIES = 64


def check_power_copies(count: int) -> None:
    """Refuse a power frame of more than MAX_POWER_COPIES copies."""
    if count > MAX_POWER_COPIES:
        raise FrameBuildError(
            f"power frame of {count} copies exceeds the cap of {MAX_POWER_COPIES}"
        )


def _finish(frame: Frame, what: str) -> Frame:
    report = check_frame_reduced(frame)
    if not report.ok:
        raise RuntimeError(f"{what} failed its own frame check: {report.violations[0]}")
    return frame


def build_complex_algebra_frame(g: FiniteGroup, index: str = "0") -> Frame:
    """One group, one block: the atoms are exactly the Cayley relations."""
    return _finish(Frame({index: g}, [[index]], {}), "complex algebra frame")


def build_power_frame(
    m: FiniteGroup,
    n: Mask,
    ids: Sequence[str],
    blocks: Optional[Sequence[Sequence[str]]] = None,
) -> Frame:
    """Copies of one group m, glued along a normal subgroup n.

    Every index carries m itself, and each in-block isomorphism matches
    cosets of n positionally (the copies are renumberings of each other).
    With n = {e} all cross atoms are bijections; with n = m each related
    rectangle is a single atom.  A block may list its ids in any order.
    More than MAX_POWER_COPIES ids are refused before any coset is
    enumerated.
    """
    check_power_copies(len(ids))
    system = enumerate_cosets(m, n)
    if blocks is None:
        blocks = [list(ids)]
    groups = {x: m for x in ids}
    if len(groups) != len(ids):
        raise FrameBuildError("duplicate index in power frame")
    # each pair is filed under the id that comes first in ids, as Frame asks;
    # an id outside ids sorts last and is refused by Frame with its own error
    pos = {x: i for i, x in enumerate(ids)}
    isos = {}
    for block in blocks:
        members = sorted(block, key=lambda x: pos.get(x, len(ids)))
        for i, x in enumerate(members):
            for y in members[i + 1 :]:
                isos[(x, y)] = IsoRecord(x, y, system, system)
    return _finish(Frame(groups, blocks, isos), "power frame")


def _cyclic_cosets(n: int, kappa: int) -> CosetSystem:
    sub = mask_of(range(0, n, kappa))
    return CosetSystem(sub, tuple(sub << j for j in range(kappa)))


def _cyclic_system(g: FiniteGroup, kappa: int) -> CosetSystem:
    """The canonical system of <kappa> in the cyclic group g, the one g keeps."""
    return enumerate_cosets(g, mask_of(range(0, g.order, kappa)))


def cyclic_iso_record(x: str, y: str, nx: int, ny: int, kappa: int) -> IsoRecord:
    """The generator-matching isomorphism Z_nx / <kappa>  ->  Z_ny / <kappa>."""
    if nx % kappa or ny % kappa:
        raise FrameBuildError(f"condition (i): {kappa} does not divide {nx if nx % kappa else ny}")
    return IsoRecord(x, y, _cyclic_cosets(nx, kappa), _cyclic_cosets(ny, kappa))


def _matrix_entries(rows: list[list[int]]) -> Iterator[tuple[tuple[int, int], int]]:
    """The entries of a square kappa matrix in the mapping form: row i's
    diagonal entry, then (i,j) and (j,i) for each j > i.  A pair that is
    zero on both sides marks unrelated groups and is left out."""
    for i, row in enumerate(rows):
        yield (i, i), row[i]
        for j in range(i + 1, len(rows)):
            if row[j] != rows[j][i] or row[j]:
                yield (i, j), row[j]
                yield (j, i), rows[j][i]


def _normalize_kappa(
    orders: Sequence[int], kappa: KappaSpec
) -> dict[tuple[int, int], int]:
    m = len(orders)
    if isinstance(kappa, Mapping):
        entries = kappa.items()
    else:
        rows = [list(r) for r in kappa]
        if len(rows) != m or any(len(r) != m for r in rows):
            raise FrameBuildError(f"kappa matrix is not {m}x{m}")
        entries = _matrix_entries(rows)
    out: dict[tuple[int, int], int] = {}
    for (i, j), value in entries:
        if not (0 <= i < m and 0 <= j < m):
            raise FrameBuildError(f"kappa entry ({i},{j}) is out of range")
        if i == j:
            if value != orders[i]:
                raise FrameBuildError(
                    f"condition (ii): kappa[{i}][{i}] = {value} "
                    f"but group {i} has order {orders[i]}"
                )
            continue
        a, b = min(i, j), max(i, j)
        if out.setdefault((a, b), value) != value:
            raise FrameBuildError(
                f"condition (iii): kappa[{a}][{b}] = {out[(a, b)]} "
                f"but kappa[{b}][{a}] = {value}"
            )
    for (i, j), value in out.items():
        if value <= 0:
            raise FrameBuildError(f"kappa[{i}][{j}] = {value} must be positive")
    return out


def build_cyclic_frame(orders: Sequence[int], kappa: KappaSpec) -> Frame:
    """Cyclic groups Z_n tied by generator-matching quotient isomorphisms.

    ``kappa`` gives the quotient size per related pair, either as a mapping
    {(i,j): k} over positions i < j or as a full symmetric matrix whose
    diagonal repeats the orders and whose zeros mark unrelated pairs.  The
    classic divisor conditions are enforced up front:

      (i)   each kappa[i][j] divides both orders,
      (ii)  kappa[i][i] equals the order,
      (iii) kappa is symmetric,
      (iv)  all three pairwise gcds agree on every related triple,

    and the relatedness pattern must be an equivalence.
    """
    orders = list(orders)
    pairs = _normalize_kappa(orders, kappa)
    for (i, j), value in sorted(pairs.items()):
        for side in (i, j):
            if orders[side] % value:
                raise FrameBuildError(f"condition (i): {value} does not divide {orders[side]}")
    related = {i: {i} for i in range(len(orders))}
    for i, j in pairs:
        related[i].add(j)
        related[j].add(i)
    for i in sorted(related):
        for j in sorted(related[i]):
            extra = related[j] - related[i]
            if extra:
                l = min(extra)
                raise FrameBuildError(
                    f"relation pattern is not an equivalence: ({i},{j}) and "
                    f"({j},{l}) are related but ({i},{l}) is not"
                )
    blocks_idx = sorted({tuple(sorted(v)) for v in related.values()})
    for block in blocks_idx:
        for i, j, l in combinations(block, 3):
            kij, kjl, kil = pairs[(i, j)], pairs[(j, l)], pairs[(i, l)]
            g1, g2, g3 = gcd(kij, kjl), gcd(kij, kil), gcd(kil, kjl)
            if not g1 == g2 == g3:
                raise FrameBuildError(
                    f"condition (iv): gcds at ({i},{j},{l}) are "
                    f"{g1}, {g2}, {g3} but must all agree"
                )
    ids = [str(i) for i in range(len(orders))]
    # one group per distinct order, shared by its indices as parse_frame does
    cyclic = {n: make_cyclic(n) for n in dict.fromkeys(orders)}
    groups = {ids[i]: cyclic[n] for i, n in enumerate(orders)}
    # the generator-matching map pairs the j-th cosets of <kappa> on both
    # sides, and both lists are in canonical order: each record files the
    # systems its groups keep (divisibility was checked above)
    isos = {}
    for (i, j), value in pairs.items():
        h, k = (_cyclic_system(cyclic[orders[side]], value) for side in (i, j))
        isos[(ids[i], ids[j])] = IsoRecord(ids[i], ids[j], h, k)
    blocks = [[ids[i] for i in block] for block in blocks_idx]
    return _finish(Frame(groups, blocks, isos), "cyclic frame")


def merge_frames(parts: Sequence[Frame]) -> Frame:
    """Disjoint union of frames (index sets must not collide)."""
    groups: dict[str, FiniteGroup] = {}
    blocks: list[Sequence[str]] = []
    isos: dict[tuple[str, str], IsoRecord] = {}
    for part in parts:
        for x in part.order:
            if x in groups:
                raise FrameBuildError(f"index {x!r} appears in more than one part")
            groups[x] = part.groups[x]
        blocks.extend(part.blocks)
        isos.update(part.isos)
    return _finish(Frame(groups, blocks, isos), "merged frame")
