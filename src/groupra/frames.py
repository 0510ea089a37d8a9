"""Frames: disjoint finite groups tied together by quotient isomorphisms.

A frame declares groups G_x for indices x (in a fixed declaration order),
an equivalence on the indices given as blocks, and for every in-block pair
x < y one isomorphism phi_xy between quotients G_x/H_xy and G_y/K_xy.  Only
the x < y records are stored; the x = y and y > x records are forced and
derived once, at construction:

* phi_xx is the identity automorphism of G_x/{e} (singleton cosets), and
* phi_yx is the inverse of phi_xy, realized by swapping the two systems.

The K-side coset list of a record is kept in image order: k.cosets[g] is
phi applied to h.cosets[g], so the index map of every record is literally
the identity.

These two derivations are frame conditions (i) and (ii), so both hold for
every Frame and the frame checks walk only triples of distinct indices: at
a triple with a repeated index, (iii) and (iv) only restate (i) and (ii)
(check_frame_full gives the proof).  Conditions (iii) and
(iv) of a related triple concern the isomorphism G_x/M0 -> G_y/P0 -> G_z/N0
that phi_xy and phi_yz induce: M0 = H_xy*H_xz and N0 = K_xz*K_yz, and
phi_xz maps each M0-coset onto the matching N0-coset.  The checks read its
coset lists straight off ``Frame.records``, and read (iii) off subgroup
orders (_is_product), with no product built.

P0 = K_xy*H_yz is the canonical system its group keeps, read in one place
(_p0) for the checks and the algebra's composition rule alike.  The M0- and
N0-cosets, its images, are read in one pass over a record's paired lists
(_coarse_images).  Condition (iv) is proved on the generators of G_x
(_agrees_on_generators); which M0-coset holds each H_xz-coset is answered
in one place (_slots), read only to name the cosets of a triple that fails
(iv) and by the algebra's composition rule.

Most of what a triple reads depends on one pair and one subgroup, not on
the whole triple, so each sweep works it out once: a dict that lives only
for the sweep keeps P0 by y and the masks of K_xy and H_yz, the images of
each record on each P0, and the text of each mask a violation prints.  Per
triple remain the order comparisons of (iii) and, for (iv), the images of
one coset per generator of G_x; the products of (iii) are built only to
print a triple that fails it, and the direct image of every H_xz-coset is
worked out only where (iv) fails.  Nothing is kept once the sweep returns
but the report.
"""

from __future__ import annotations

from itertools import combinations, permutations
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .errors import InvalidFrameError, NotASubgroupError, NotNormalError, NotRelatedError
from .groups import (
    CosetSystem,
    FiniteGroup,
    Mask,
    _fmt_mask,
    enumerate_cosets,
    homomorphism_defect,
    is_subset,
)

__all__ = [
    "IsoRecord",
    "Frame",
    "Violation",
    "FrameCheckReport",
    "check_frame_full",
    "check_frame_reduced",
]


class IsoRecord(NamedTuple):
    """One quotient isomorphism G_x/H -> G_y/K with associated coset lists."""

    x: str
    y: str
    h: CosetSystem
    k: CosetSystem

    @property
    def kappa(self) -> int:
        return self.h.count


def try_image(record: IsoRecord, subset: Mask) -> Optional[Mask]:
    """phi[subset] when subset is an exact union of H-cosets, else None."""
    out = 0
    covered = 0
    for hc, kc in zip(record.h.cosets, record.k.cosets):
        if is_subset(hc, subset):
            out |= kc
            covered |= hc
    return out if covered == subset else None


class Frame:
    """Validated frame data; immutable once constructed.

    Construction is the one check of what frame data mean, for builders,
    callers and parse_frame alike: blocks partition the declared indices,
    exactly one record per in-block pair x < y, and each stored record is a
    genuine quotient isomorphism.  For a record, enumerate_cosets proves H
    and K normal (or returns the system its group already keeps) and gives
    the canonical lists that H's list must equal and K's must reorder; the
    homomorphism is then read straight off the paired lists by
    homomorphism_defect, with no quotient group built.  It is proved on the
    cosets of G_x's generators; the scan over every pair of cosets runs
    only to name the witness of a record that fails.  The
    InvalidFrameError for a faulty record names it in ``pair``, and gives
    ``witness`` when the pairing is not homomorphic.
    ``records`` holds the record of every related ordered pair, squares and
    reverses included, in declaration order of x and then of y; the square
    records are identities and each reverse record inverts the stored one,
    so conditions (i) and (ii) hold by construction.  Whether the records
    fit together at each triple, conditions (iii) and (iv), is a separate
    question, answered by check_frame_full / check_frame_reduced.  ``groups``,
    ``isos`` and ``records`` are read-only mappings, so the verdict a check
    caches on the frame (and the composition rules an algebra caches) stay
    true of it.
    """

    def __init__(
        self,
        groups: Mapping[str, FiniteGroup],
        blocks: Sequence[Sequence[str]],
        isos: Mapping[tuple[str, str], IsoRecord],
    ):
        self.groups: Mapping[str, FiniteGroup] = MappingProxyType(dict(groups))
        self.order: tuple[str, ...] = tuple(self.groups)
        self.pos: dict[str, int] = {x: i for i, x in enumerate(self.order)}

        seen: set[str] = set()
        normalized = []
        for block in blocks:
            members = list(block)
            if not members:
                raise InvalidFrameError("empty block")
            for x in members:
                if x not in self.groups:
                    raise InvalidFrameError(f"block mentions unknown index {x!r}")
                if x in seen:
                    raise InvalidFrameError(f"index {x!r} appears in two blocks")
                seen.add(x)
            normalized.append(tuple(sorted(members, key=self.pos.__getitem__)))
        missing = [x for x in self.order if x not in seen]
        if missing:
            raise InvalidFrameError(f"index {missing[0]!r} belongs to no block")
        normalized.sort(key=lambda b: self.pos[b[0]])
        self.blocks: tuple[tuple[str, ...], ...] = tuple(normalized)
        self._block_of: dict[str, int] = {
            x: i for i, b in enumerate(self.blocks) for x in b
        }

        self.isos: Mapping[tuple[str, str], IsoRecord] = MappingProxyType(dict(isos))
        for (x, y), record in self.isos.items():
            try:
                self._validate_record(x, y, record)
            except InvalidFrameError as exc:
                exc.pair = (x, y)
                raise
        for block in self.blocks:
            for i, x in enumerate(block):
                for y in block[i + 1 :]:
                    if (x, y) not in self.isos:
                        raise InvalidFrameError(f"missing isomorphism for pair ({x},{y})")

        records: dict[tuple[str, str], IsoRecord] = {}
        for x in self.order:
            for y in self.blocks[self._block_of[x]]:
                if x == y:
                    singles = CosetSystem(1, tuple(1 << e for e in range(self.groups[x].order)))
                    records[(x, x)] = IsoRecord(x, x, singles, singles)
                elif (x, y) in self.isos:
                    records[(x, y)] = self.isos[(x, y)]
                else:
                    stored = self.isos[(y, x)]
                    records[(x, y)] = IsoRecord(x, y, stored.k, stored.h)
        self.records: Mapping[tuple[str, str], IsoRecord] = MappingProxyType(records)
        self._verdict: Optional[FrameCheckReport] = None

    def _validate_record(self, x: str, y: str, record: IsoRecord) -> None:
        if x not in self.groups or y not in self.groups:
            raise InvalidFrameError(f"isomorphism for unknown pair ({x},{y})")
        if record.x != x or record.y != y:
            raise InvalidFrameError(f"record filed under ({x},{y}) names ({record.x},{record.y})")
        if self.pos[x] >= self.pos[y]:
            raise InvalidFrameError(f"isomorphism ({x},{y}) must have x declared before y")
        if self._block_of[x] != self._block_of[y]:
            raise InvalidFrameError(f"isomorphism ({x},{y}) crosses blocks")
        gx, gy = self.groups[x], self.groups[y]
        try:
            canonical_h = enumerate_cosets(gx, record.h.subgroup)
            canonical_k = enumerate_cosets(gy, record.k.subgroup)
        except (NotASubgroupError, NotNormalError) as exc:
            raise InvalidFrameError(f"record ({x},{y}): {exc}") from None
        if record.h != canonical_h:
            raise InvalidFrameError(f"H-cosets for ({x},{y}) are not in canonical order")
        if record.h.count != record.k.count:
            raise InvalidFrameError(
                f"quotient sizes for ({x},{y}) differ: {record.h.count} vs {record.k.count}"
            )
        if set(record.k.cosets) != set(canonical_k.cosets):
            raise InvalidFrameError(f"K-cosets for ({x},{y}) are not cosets of K")
        witness = homomorphism_defect(gx, record.h, gy, record.k)
        if witness is not None:
            exc = InvalidFrameError(f"pair ({x},{y}) is not a quotient isomorphism: {witness}")
            exc.witness = witness
            raise exc

    # -- queries ---------------------------------------------------------

    def related(self, x: str, y: str) -> bool:
        return self._block_of[x] == self._block_of[y]

    def resolve_iso(self, x: str, y: str) -> IsoRecord:
        """The record for any related pair, looked up in ``records``."""
        record = self.records.get((x, y))
        if record is None:
            if x not in self.groups or y not in self.groups:
                raise NotRelatedError(f"unknown group index {x!r} or {y!r}")
            raise NotRelatedError(f"indices {x} and {y} lie in different blocks")
        return record

    # -- bookkeeping for downstream consumers ----------------------------

    @property
    def last_check(self) -> Optional["FrameCheckReport"]:
        return self._verdict

    def _signature(self):
        return (
            self.order,
            tuple((g.order, g.op) for g in self.groups.values()),
            self.blocks,
            tuple(
                (x, y, r.h.cosets, r.k.cosets)
                for (x, y), r in self.records.items()
                if (x, y) in self.isos
            ),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        return self._signature() == other._signature()

    def __repr__(self) -> str:
        return f"Frame(indices={list(self.order)}, blocks={[list(b) for b in self.blocks]})"


def _times_normal(a: Mask, b: CosetSystem) -> Mask:
    """The product set a*B for a normal subgroup B: the B-cosets that meet a.

    a*B is the union of vB over v in a, and vB is the B-coset holding v, so
    one lookup per B-coset met does it: |a|/|a & B| steps for a subgroup a,
    where the elementwise product takes |a|*|B|.
    """
    out = 0
    rest = a
    cosets, where = b.cosets, b._where
    while rest:
        out |= cosets[where[(rest & -rest).bit_length() - 1]]
        rest &= ~out
    return out


def _is_product(c: Mask, a: Mask, b: Mask) -> bool:
    """Whether the subgroup c, which contains the normal subgroup a, is a*b.

    a*b is a subgroup of order |a|*|b|/|a & b|, and it lies inside c iff b
    does, since c contains a: so c = a*b iff b lies inside c and
    |c|*|a & b| = |a|*|b|.
    """
    if not is_subset(b, c):
        return False
    return c.bit_count() * (a & b).bit_count() == a.bit_count() * b.bit_count()


def _p0(frame: Frame, x: str, y: str, z: str) -> CosetSystem:
    """The canonical system of P0 = K_xy*H_yz in G_y for the triple (x,y,z).

    phi_yx and phi_yz are defined on P0's cosets, since P0 contains K_xy and
    H_yz: their images are the M0- and N0-cosets (_coarse_images).
    """
    k_xy, h_yz = frame.records[(y, x)].h, frame.records[(y, z)].h
    return enumerate_cosets(frame.groups[y], _times_normal(k_xy.subgroup, h_yz))


def _coarse_images(record: IsoRecord, coarse: CosetSystem) -> tuple[Mask, ...]:
    """phi of each coset of a coarse subgroup that contains H, in coarse's order.

    Each H-coset lies inside the coarse coset of its least element, so one
    pass over the record's paired lists adds each K-coset to the image of
    the coarse coset that holds its H-coset: one read of coarse's lookup
    table per H-coset.  A sweep shares the result among triples, so it is
    a tuple.
    """
    out = [0] * coarse.count
    where = coarse._where
    for r, kc in zip(record.h.reps, record.k.cosets):
        out[where[r]] |= kc
    return tuple(out)


def _slots(ryx: IsoRecord, rxz: IsoRecord, p: CosetSystem) -> list[int]:
    """For each H_xz-coset, the P0-coset whose phi_yx-image holds it.

    The least element of an H_xz-coset lies in an H_xy-coset that phi_xy
    sends into one P0-coset; the rest of the H_xz-coset follows it when
    H_xz lies inside M0, as on every checked frame.  Two callers read it:
    _check_triple, only at a triple whose generators fail (iv), to name
    each faulty coset, and GroupRelationAlgebra._rule.
    """
    where_p, k_reps, where_h = p._where, ryx.h.reps, ryx.k._where
    return [where_p[k_reps[where_h[r]]] for r in rxz.h.reps]


def _agrees_on_generators(
    gx: FiniteGroup, ryx: IsoRecord, rxz: IsoRecord, p: CosetSystem, n: tuple[Mask, ...]
) -> bool:
    """Whether phi_xz sends the H_xz-coset of each generator s of G_x into
    the N0-coset of its slot (_check_triple says why that decides condition
    (iv)); the slot is _slots' formula read at s.
    """
    k_cosets, where_xz = rxz.k.cosets, rxz.h._where
    where_p, k_reps, where_h = p._where, ryx.h.reps, ryx.k._where
    for s in gx._generating_set:
        if k_cosets[where_xz[s]] & ~n[where_p[k_reps[where_h[s]]]]:
            return False
    return True


# -- frame conditions ----------------------------------------------------


class Violation(NamedTuple):
    condition: str
    where: tuple[str, ...]
    detail: str

    def __str__(self) -> str:
        spot = ",".join(self.where)
        return f"violation ({self.condition}) at ({spot}): {self.detail}"


class FrameCheckReport(NamedTuple):
    mode: str
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        head = f"frame check ({self.mode}): {'PASS' if self.ok else 'FAIL'}"
        return [head, *map(str, self.violations)]


def _once(facts: dict, key: tuple, make: Callable, *args):
    """facts[key], made by make(*args) the first time the sweep asks."""
    value = facts.get(key)
    if value is None:
        value = facts[key] = make(*args)
    return value


def _check_triple(
    frame: Frame, x: str, y: str, z: str, both: bool, facts: dict
) -> list[Violation]:
    """Conditions (iii) and (iv) at one triple, read off ``frame.records``.

    (iii) holds iff M0 = H_xy*H_xz (and, with ``both``, N0 = K_xz*K_yz);
    (iv) iff H_xz lies inside M0 and phi_xz maps each M0-coset onto the
    matching N0-coset.  Every fact that depends on fewer than all three
    indices is read through ``facts``, the sweep's own dict: P0, the M0- and
    N0-cosets and the text of each mask a violation prints.

    (iii) is decided by orders (_is_product), with no product built: P0
    contains K_xy and H_yz, so its images M0 = phi_yx(P0) and
    N0 = phi_yz(P0) are subgroups of G_x and G_z that contain H_xy and K_yz,
    both normal.  So M0 = H_xy*H_xz iff H_xz lies inside M0 and
    |M0|*|H_xy & H_xz| = |H_xy|*|H_xz|, and N0 = K_xz*K_yz iff K_xz lies
    inside N0 and |N0|*|K_xz & K_yz| = |K_xz|*|K_yz|.  Only a triple that
    fails builds the product its violation prints (_times_normal).

    Once H_xz lies inside M0, (iv) is decided on the generators s of G_x
    (_agrees_on_generators): is the K_xz-coset of phi_xz(s) inside the
    N0-coset that phi_yz(phi_xy(s)*P0) gives?  That is Light's test, as in
    validate_table and homomorphism_defect:

    * A coset aK_xz inside a coset bN0 puts K_xz inside a^-1*bN0, the
      N0-coset that holds the identity: K_xz lies inside N0.  So
      g -> phi_xz(g)*N0 and g -> phi_yz(phi_xy(g)*P0) are both homomorphisms
      G_x -> G_z/N0, and two homomorphisms that agree on generators agree
      everywhere.  A trivial G_x has no generators; there kappa_xy =
      kappa_xz = 1, so P0 = G_y and N0 = G_z = K_xz, and (iv) holds.
    * Agreement puts each of the |M0|/|H_xz| K_xz-cosets over an M0-coset
      inside the N0-coset that coset is matched with.
    * G_x/M0, G_y/P0 and G_z/N0 have one size, and so have G_x/H_xz and
      G_z/K_xz, so |N0| = |M0|*|K_xz|/|H_xz|: each union fills its N0-coset.

    Conversely a triple that satisfies (iv) passes the test, so only a
    failing triple gathers the direct image of every H_xz-coset (_slots)
    and names each M0-coset where it differs, as the full scan always did.
    """
    records = frame.records
    rxy, ryx, rxz, ryz = records[(x, y)], records[(y, x)], records[(x, z)], records[(y, z)]
    h_xz = rxz.h.subgroup
    p = _once(facts, ("P0", y, ryx.h.subgroup, ryz.h.subgroup), _p0, frame, x, y, z)
    m = _once(facts, ("image", y, x, p.subgroup), _coarse_images, ryx, p)
    n = _once(facts, ("image", y, z, p.subgroup), _coarse_images, ryz, p)
    found = []
    if not _is_product(m[0], rxy.h.subgroup, h_xz):
        lhs = try_image(rxy, _times_normal(h_xz, rxy.h))  # phi_xy(H_xy*H_xz)
        shown = f"{_text(facts, lhs)}, expected {_text(facts, p.subgroup)}"
        found.append(("iii", f"image of H_xy*H_xz is {shown}"))
    if both:
        k_xz = rxz.k.subgroup
        if not _is_product(n[0], ryz.k.subgroup, k_xz):
            kk = _times_normal(k_xz, ryz.k)
            shown = f"{_text(facts, n[0])}, expected {_text(facts, kk)}"
            found.append(("iii", f"image of K_xy*H_yz is {shown}"))
    if not is_subset(h_xz, m[0]):
        shown = f"{_text(facts, h_xz)} is not inside M0 = {_text(facts, m[0])}"
        found.append(("iv", f"H_xz = {shown}"))
    elif not _agrees_on_generators(frame.groups[x], ryx, rxz, p, n):
        direct = [0] * len(m)
        for j, kc in zip(_slots(ryx, rxz, p), rxz.k.cosets):
            direct[j] |= kc
        for mc, img, nc in zip(m, direct, n):
            if img != nc:
                shown = (
                    f"{_text(facts, mc)} is {_text(facts, img)}, "
                    f"induced route gives {_text(facts, nc)}"
                )
                found.append(("iv", f"direct image of {shown}"))
    return [Violation(condition, (x, y, z), detail) for condition, detail in found]


def _text(facts: dict, mask: Optional[Mask]) -> str:
    return _once(facts, ("text", mask), _fmt_mask, mask)


def _sweep(frame: Frame, mode: str, triples: Callable, both: bool) -> FrameCheckReport:
    # what _check_triple works out once, each fact under a tagged key;
    # dropped when the sweep returns
    facts: dict = {}
    violations: list[Violation] = []
    for block in frame.blocks:
        for x, y, z in triples(block):
            violations += _check_triple(frame, x, y, z, both, facts)
    report = FrameCheckReport(mode, tuple(violations))
    frame._verdict = report
    return report


def check_frame_full(frame: Frame) -> FrameCheckReport:
    """Check conditions (iii) and (iv) at every related triple of distinct
    indices.

    Every ordered triple of three distinct indices of a block is checked,
    descending ones included, in the order product(block, repeat=3) meets
    them.  Conditions (i) and (ii) need no check: Frame builds every square
    and reverse record itself, so phi_xx is the identity on G_x/{e} and
    phi_yx = phi_xy^-1.  With them, no triple with a repeated index can
    fail (iii) or (iv):

    * x = y: P0 = K_xx*H_xz = H_xz, so M0 = H_xz = H_xx*H_xz and
      N0 = phi_xz(H_xz) = K_xz = K_xz*K_xz; the route through y is phi_xz
      itself.
    * y = z: P0 = K_xy*H_yy = K_xy, so M0 = H_xy = H_xy*H_xz and
      N0 = K_xy = K_xz*K_yy; the route phi_yy o phi_xy is phi_xz.
    * x = z: P0 = K_xy*H_yx = K_xy, so M0 = N0 = H_xy; the route
      phi_yx o phi_xy is the identity on G_x/H_xy, which is what phi_xx
      gives.

    Each P0, the M0- and N0-cosets of each record on each P0 and each
    printed mask text are worked out once per sweep (see the module
    docstring).  verification.check_image_equations is the independent
    elementwise sweep: it still walks every ordered triple.
    """
    return _sweep(frame, "full", lambda block: permutations(block, 3), both=False)


def check_frame_reduced(frame: Frame) -> FrameCheckReport:
    """Check only the ascending triples; equivalent to the full check.

    Conditions (iii) and (iv) are checked for x < y < z, with a second image
    equation that the full sweep would reach through descending triples.
    Conditions (i) and (ii) hold by construction, as in the full check, and
    the facts its triples share are worked out once per sweep in the same
    way.
    """
    return _sweep(frame, "reduced", lambda block: combinations(block, 3), both=True)
