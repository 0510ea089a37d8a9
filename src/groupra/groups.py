"""Finite groups as operation tables, plus subgroup / coset machinery.

Elements of a group of order n are the indices 0..n-1, with 0 always the
identity (tables are renumbered on validation if needed).  Subsets are
bitmasks: bit e is set iff element e belongs to the subset.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, NamedTuple, NoReturn, Optional, Sequence

from .errors import (
    GroupTableError,
    IncompatibleQuotientsError,
    NotASubgroupError,
    NotNormalError,
)

__all__ = [
    "Mask",
    "mask_of",
    "elements",
    "is_subset",
    "full_mask",
    "FiniteGroup",
    "MAX_GROUP_ORDER",
    "check_group_order",
    "make_cyclic",
    "validate_table",
    "subgroup_defect",
    "is_normal",
    "CosetSystem",
    "enumerate_cosets",
    "complex_product",
    "left_translate",
    "quotient_group",
    "map_defect",
    "homomorphism_defect",
    "IsoCheck",
    "check_quotient_iso",
]

Mask = int

# The largest group order any table or cyclic group may have.  It bounds the
# n*n table a declaration builds and the cost of rejecting a bad table.
MAX_GROUP_ORDER = 1024


def mask_of(elems: Iterable[int]) -> Mask:
    """Bitmask for an iterable of element indices."""
    m = 0
    for e in elems:
        m |= 1 << e
    return m


def elements(mask: Mask) -> list[int]:
    """Element indices of a bitmask, ascending."""
    return list(iter_bits(mask))


def _fmt_mask(mask: Mask) -> str:
    """The display text {a,b,c} of a mask's elements."""
    return "{" + ",".join(map(str, elements(mask))) + "}"


def iter_bits(mask: Mask) -> Iterator[int]:
    """Set bit positions of a mask, ascending, one step per set bit."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def is_subset(a: Mask, b: Mask) -> bool:
    return not (a & ~b)


def full_mask(n: int) -> Mask:
    return (1 << n) - 1


class _Value:
    """A read-only value: equal to a value of its own class only, and hashed,
    by the fields that the subclass's ``_compared`` getter reads.  Every
    write to a field is refused."""

    _compared: attrgetter

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared(self) == self._compared(other)

    def __hash__(self) -> int:
        return hash(self._compared(self))

    def __setattr__(self, name: str, value: object) -> NoReturn:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> NoReturn:
        raise AttributeError(f"cannot delete field {name!r}")


# A read-only class's __init__ stores its fields with this, past _Value's
# __setattr__.  Unlike a write to the instance's __dict__, it leaves the
# values inline in the object, where attribute reads are fastest.
_store = object.__setattr__


class FiniteGroup(_Value):
    """A finite group given by its full operation table.

    Invariants (checked on construction): the table is square over
    0..order-1, index 0 is a two-sided identity and ``inverse`` really
    inverts.  Associativity is *not* re-verified here; build through
    :func:`validate_table` when the table comes from outside.

    A group keeps what it has proved about its table: the coset systems of
    its normal subgroups (``_cosets``, filled by enumerate_cosets) and its
    greedy generating set.  ``relabelled`` gives the same table under
    another label with those proofs shared, not redone.

    Groups are read-only and compare and hash by ``order``, ``op`` and
    ``inverse``; the label and the kept proofs play no part.  The table and
    the inverses are stored as tuples, whatever sequences they are given as.
    """

    order: int
    op: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]
    label: str
    _cosets: dict[Mask, CosetSystem]
    _compared = attrgetter("order", "op", "inverse")

    def __init__(
        self,
        order: int,
        op: Sequence[Sequence[int]],
        inverse: Sequence[int],
        label: str = "G",
    ) -> None:
        # tuple() returns a tuple argument itself, so tuple rows are kept, not copied
        op = tuple(map(tuple, op))
        inverse = tuple(inverse)
        n = order
        check_group_order(n)
        if len(op) != n or any(len(row) != n for row in op):
            raise GroupTableError(f"operation table is not {n}x{n}")
        if len(inverse) != n:
            raise GroupTableError(f"inverse table has {len(inverse)} entries, expected {n}")
        for i in range(n):
            if op[0][i] != i or op[i][0] != i:
                raise GroupTableError(f"index 0 is not a two-sided identity (fails at {i})")
            j = inverse[i]
            if not 0 <= j < n or op[i][j] != 0 or op[j][i] != 0:
                raise GroupTableError(f"inverse table wrong at element {i}")
        _store(self, "order", order)
        _store(self, "op", op)
        _store(self, "inverse", inverse)
        _store(self, "label", label)
        _store(self, "_cosets", {})

    def mul(self, a: int, b: int) -> int:
        return self.op[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def elements(self) -> range:
        return range(self.order)

    @cached_property
    def _generating_set(self) -> list[int]:
        """The greedy generating set of the whole group (_generators)."""
        return _generators(self.op, full_mask(self.order))

    def relabelled(self, label: str) -> FiniteGroup:
        """This group under another label, sharing its proofs.

        The copy holds the same table, the same ``_cosets`` dict and, once
        picked, the same generating set, so a subgroup proved normal in one
        is proved in both.  The table is not checked again.  Only proofs
        that succeed are kept, so an error raised on the copy names its label.
        """
        copy = object.__new__(FiniteGroup)
        copy.__dict__.update(self.__dict__, label=label)
        return copy

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label}, order={self.order})"


def check_group_order(n: int) -> None:
    """Refuse a group order that is not positive or exceeds MAX_GROUP_ORDER."""
    if n <= 0:
        raise GroupTableError(f"group order must be positive, got {n}")
    if n > MAX_GROUP_ORDER:
        raise GroupTableError(f"group order {n} exceeds the cap of {MAX_GROUP_ORDER}")


def make_cyclic(n: int, label: Optional[str] = None) -> FiniteGroup:
    """The cyclic group Z_n with addition mod n."""
    check_group_order(n)
    twice = tuple(range(n)) * 2  # row a is twice[a : a + n], as in is_cyclic_table
    op = tuple(twice[a : a + n] for a in range(n))
    inverse = tuple((-a) % n for a in range(n))
    return FiniteGroup(n, op, inverse, label or f"Z{n}")


def is_cyclic_table(g: FiniteGroup) -> bool:
    """True iff the table literally equals the Z_n addition table."""
    n = g.order
    twice = tuple(range(n)) * 2  # row a of Z_n is twice[a : a + n]
    return all(row == twice[a : a + n] for a, row in enumerate(g.op))


def _generators(op: Sequence[Sequence[int]], mask: Mask) -> Optional[list[int]]:
    """A generating set of mask under op, picked greedily; None if mask is not closed.

    Each generator is the least element of mask not yet reached from the
    identity 0 by right words ((0*g1)*g2)*...*gm over the generators so far,
    and every reached element meets every generator once.  If no product
    leaves mask, the reached set is all of mask and is closed under op.  In
    a group each new generator at least doubles the subgroup reached, so
    there are at most log2(|mask|).
    """
    gens: list[int] = []
    reached = [0]
    seen = 1
    while seen != mask:
        rest = mask & ~seen
        gens.append((rest & -rest).bit_length() - 1)
        # elements reached so far have met the earlier generators; new ones meet all
        todo = [(x, len(gens) - 1) for x in reached]
        while todo:
            x, first = todo.pop()
            row = op[x]
            for t in gens[first:]:
                y = row[t]
                if not mask >> y & 1:
                    return None
                if not seen >> y & 1:
                    seen |= 1 << y
                    reached.append(y)
                    todo.append((y, 0))
    return gens


def _assoc_fault(
    rows: Sequence[tuple[int, ...]], middles: Sequence[int]
) -> Optional[tuple[int, int, int]]:
    """First (i, j, k) with (i*j)*k != i*(j*k), j from the ascending middles.

    Triples are taken in lexicographic order; None if every middle
    associates with every i and k.  Row i*(j*-) is gathered from row i by
    one itemgetter per middle j, built once.
    """
    if len(rows) == 1:  # itemgetter of one index returns an entry, not a row
        return None  # and the 1x1 table, range-checked, is (0,)
    gathers = [(j, itemgetter(*rows[j])) for j in middles]
    for i, row_i in enumerate(rows):
        for j, gather in gathers:
            left = rows[row_i[j]]
            right = gather(row_i)
            if left != right:
                k = next(k for k, (a, b) in enumerate(zip(left, right)) if a != b)
                return i, j, k
    return None


def validate_table(table: Sequence[Sequence[int]], label: str = "G") -> FiniteGroup:
    """Check the full group axioms on a raw table and build a FiniteGroup.

    The identity is renumbered to index 0 if it sits elsewhere (a single
    transposition of labels).  Raises GroupTableError naming the first
    failing triple / missing piece.  A table of more than MAX_GROUP_ORDER
    rows is refused before anything is read.

    Each row is made a tuple once (a tuple row is taken as it is), and
    those rows serve the range check, Light's test and the FiniteGroup.
    The range is proved in one pass over the whole table: every row has n
    entries, and the union of the rows lies in 0..n-1.  Only when that
    proof fails does the row-by-row scan run, to name the first fault in
    reading order: a row of the wrong length, or an entry out of range.

    Associativity is proved by Light's test: the middles m with
    (i*m)*k = i*(m*k) for all i, k are closed under the product, so it is
    enough to check the middles of the greedy generating set that
    _generators picks over the whole table -- at most log2(n) of them for
    a group of order n, O(n^2 log n) in place of O(n^3).  The full scan
    over every middle runs only when the proof fails, to name the
    lexicographically first failing triple.
    """
    n = len(table)
    if n == 0:
        raise GroupTableError("empty operation table")
    check_group_order(n)
    rows = list(map(tuple, table))
    if set(map(len, rows)) != {n} or not set().union(*rows) <= set(range(n)):
        for i, row in enumerate(rows):
            if len(row) != n:
                raise GroupTableError(f"row {i} has {len(row)} entries, expected {n}")
            if min(row) < 0 or max(row) >= n:
                j, v = next((j, v) for j, v in enumerate(row) if not 0 <= v < n)
                raise GroupTableError(f"entry ({i},{j}) = {v} out of range 0..{n - 1}")
    # locate a two-sided identity
    ident = None
    for e in range(n):
        if all(rows[e][i] == i and rows[i][e] == i for i in range(n)):
            ident = e
            break
    if ident is None:
        raise GroupTableError("no two-sided identity element")
    if ident != 0:
        # relabel by swapping 0 <-> ident
        p = list(range(n))
        p[0], p[ident] = ident, 0
        rows = [tuple(p[rows[p[i]][p[j]]] for j in range(n)) for i in range(n)]
    gens = _generators(rows, full_mask(n))
    if _assoc_fault(rows, gens) is not None:
        i, j, k = _assoc_fault(rows, range(n))
        raise GroupTableError(
            f"not associative at ({i},{j},{k}): "
            f"({i}*{j})*{k} = {rows[rows[i][j]][k]} but "
            f"{i}*({j}*{k}) = {rows[i][rows[j][k]]}"
        )
    # In a finite monoid i*j = 0 forces j*i = 0: x -> j*x is one-to-one, so
    # j*y = 0 for some y, and y = (i*j)*y = i*(j*y) = i.  So the one 0 in
    # row i, if any, is i's two-sided inverse.
    inverse = []
    for i, row in enumerate(rows):
        if 0 not in row:
            raise GroupTableError(f"element {i} has no two-sided inverse")
        inverse.append(row.index(0))
    g = FiniteGroup(n, tuple(rows), tuple(inverse), label)
    g.__dict__["_generating_set"] = gens  # Light's test picked them; keep, not re-pick
    return g


def subgroup_defect(g: FiniteGroup, h: Mask) -> Optional[str]:
    """None if h is a subgroup of g, else a human-readable witness.

    Closure is proved on the greedy generating set of h (_generators),
    O(|h| log |h|) products.  The O(|h|^2) scan over every pair runs only
    when that proof fails, to name the first missing inverse or product.
    """
    return _subgroup_generators(g, h)[1]


def _subgroup_generators(g: FiniteGroup, h: Mask) -> tuple[Optional[list[int]], Optional[str]]:
    """(a generating set of h, None) if h is a subgroup of g, else (None, witness).

    A negative mask is refused first: it has infinitely many set bits, so
    no walk over its elements ends.
    """
    if h < 0:
        return None, f"mask {h} is negative"
    if not is_subset(h, full_mask(g.order)):
        return None, f"subset {elements(h)} contains indices outside the group"
    if not h & 1:
        return None, "subset does not contain the identity"
    gens = _generators(g.op, h)
    if gens is None:
        return None, _closure_witness(g, h)
    return gens, None


def _closure_witness(g: FiniteGroup, h: Mask) -> Optional[str]:
    """The first missing inverse or product of h, by a scan over every pair."""
    elems = elements(h)
    for a in elems:
        if not h >> g.inv(a) & 1:
            return f"inverse of {a} is {g.inv(a)}, which is missing"
        for b in elems:
            c = g.mul(a, b)
            if not h >> c & 1:
                return f"product {a}*{b} = {c} falls outside the subset"
    return None


def is_normal(g: FiniteGroup, h: Mask) -> bool:
    """Whether the subgroup h is normal in g.

    Decided by enumerate_cosets, which conjugates the generators of h by
    those of g, both picked by _generators.  Raises NotASubgroupError
    (with a witness) if h is not even a subgroup.
    """
    try:
        enumerate_cosets(g, h)
    except NotNormalError:
        return False
    return True


class CosetSystem(_Value):
    """An enumeration of the cosets of a normal subgroup.

    cosets[0] is always the subgroup itself; the remaining cosets may be in
    any order (canonical systems sort by least element, associated systems
    follow an isomorphism's image order).

    ``reps`` holds the least element of each coset.  ``_where`` is a list
    indexed by element: the position of the element's coset, or -1 for an
    element below the largest one covered that lies in no coset.  Hot loops
    read it directly; ``coset_of`` is the checked lookup, which refuses any
    element outside the table, negative ones included.  Both are built once
    per system, on first use, and are the one place every layer reads
    element-to-coset lookups and representatives from.

    ``permuted`` lists a proven system's cosets in another order, the image
    order of a quotient isomorphism; it reads both tables through the
    permutation instead of building them again from the masks.

    Systems are read-only and compare and hash by ``subgroup`` and
    ``cosets``; ``reps`` and ``_where``, built or not, play no part.  The
    cosets are stored as a tuple, whatever sequence they are given as.
    """

    subgroup: Mask
    cosets: tuple[Mask, ...]
    _compared = attrgetter("subgroup", "cosets")

    def __init__(self, subgroup: Mask, cosets: Sequence[Mask]) -> None:
        cosets = tuple(cosets)
        # the construction check, which permuted skips: coset 0 is the
        # subgroup, which holds the identity, and the cosets are pairwise
        # disjoint and of its size
        if not cosets or cosets[0] != subgroup:
            raise ValueError("coset 0 must be the subgroup itself")
        if not subgroup & 1:
            raise ValueError("subgroup must contain the identity")
        size = subgroup.bit_count()
        seen = 0
        for c in cosets:
            if c.bit_count() != size:
                raise ValueError("cosets must all have the subgroup's size")
            if seen & c:
                raise ValueError("cosets must be pairwise disjoint")
            seen |= c
        _store(self, "subgroup", subgroup)
        _store(self, "cosets", cosets)

    def __repr__(self) -> str:
        return f"CosetSystem(subgroup={self.subgroup!r}, cosets={self.cosets!r})"

    @property
    def count(self) -> int:
        return len(self.cosets)

    @cached_property
    def reps(self) -> tuple[int, ...]:
        """The least element of each coset, in enumeration order."""
        return tuple((c & -c).bit_length() - 1 for c in self.cosets)

    @cached_property
    def _where(self) -> list[int]:
        where = [-1] * max(c.bit_length() for c in self.cosets)
        for i, c in enumerate(self.cosets):
            while c:
                low = c & -c
                where[low.bit_length() - 1] = i
                c ^= low
        return where

    def permuted(self, mapping: Sequence[int]) -> CosetSystem:
        """The system whose coset i is this system's coset mapping[i].

        mapping must be a bijection of 0..count-1 that fixes 0, as
        map_defect checks; the caller checks it, and the new system's
        cosets are not checked again.  Its ``reps`` and ``_where`` are this
        system's, read through mapping and its inverse.
        """
        image = object.__new__(CosetSystem)
        # position[c] is coset c's place in the new order; position[-1] stays -1,
        # so an element in no coset stays in none
        position = [-1] * (len(mapping) + 1)
        for i, c in enumerate(mapping):
            position[c] = i
        image.__dict__.update(
            subgroup=self.subgroup,
            cosets=tuple(map(self.cosets.__getitem__, mapping)),
            reps=tuple(map(self.reps.__getitem__, mapping)),
            _where=list(map(position.__getitem__, self._where)),
        )
        return image

    def coset_of(self, e: int) -> int:
        """Index of the coset containing element e."""
        where = self._where
        i = where[e] if 0 <= e < len(where) else -1
        if i < 0:
            raise ValueError(f"element {e} lies in no coset of this system")
        return i


def enumerate_cosets(g: FiniteGroup, h: Mask) -> CosetSystem:
    """Canonical coset system of a normal subgroup: h first, then ascending
    by least element.

    h is proved a subgroup as in subgroup_defect, and then normal on the
    generators _generators picks for g and for h: h is normal iff s*t*s^-1
    is in h for every generator s of g and t of h, since the s that
    conjugate h into (so onto) itself form a subgroup.  The cosets are the
    left translates of h.

    g keeps each system this builds in a private dict keyed by h, which
    lives and dies with g: a repeated call returns the same object, so every
    layer that asks about h shares it.  A subset that is not a normal
    subgroup is not kept; each call proves it again and raises the same error.
    """
    hit = g._cosets.get(h)
    if hit is not None:
        return hit
    gens, defect = _subgroup_generators(g, h)
    if gens is None:
        shown = elements(h) if h >= 0 else h
        raise NotASubgroupError(f"{shown} is not a subgroup of {g.label}: {defect}")
    for s in g._generating_set:
        row, s_inv = g.op[s], g.inverse[s]
        if any(not h >> g.op[row[t]][s_inv] & 1 for t in gens):
            raise NotNormalError(f"{elements(h)} is not normal in {g.label}")
    rest = []
    seen = h
    for a in g.elements():
        if not seen >> a & 1:
            coset = left_translate(g, a, h)
            rest.append(coset)
            seen |= coset
    # ascending least element == discovery order, since we scan elements in order
    system = g._cosets[h] = CosetSystem(h, (h, *rest))
    return system


def complex_product(g: FiniteGroup, a: Mask, b: Mask) -> Mask:
    """Elementwise product set {x*y : x in a, y in b}."""
    out = 0
    for x in iter_bits(a):
        row = g.op[x]
        for y in iter_bits(b):
            out |= 1 << row[y]
    return out


def left_translate(g: FiniteGroup, x: int, a: Mask) -> Mask:
    row = g.op[x]
    out = 0
    for y in iter_bits(a):
        out |= 1 << row[y]
    return out


def quotient_group(g: FiniteGroup, h: Mask) -> FiniteGroup:
    """The quotient of g by a normal subgroup, on canonical coset indices.

    Products and inverses are read off the least coset representatives.
    Coset index 0 (the subgroup) is the identity, so no renumbering happens,
    and the axioms need no re-proof: g is a group and enumerate_cosets has
    just proven h normal in it.  A convenience for callers that want the
    quotient as a group; no check of a frame or a quotient map builds one.
    """
    system = enumerate_cosets(g, h)
    op = tuple(tuple(system.coset_of(g.op[ra][rb]) for rb in system.reps) for ra in system.reps)
    inverse = tuple(system.coset_of(g.inverse[r]) for r in system.reps)
    return FiniteGroup(system.count, op, inverse, f"{g.label}/{_fmt_mask(h)}")


def map_defect(mapping: Sequence[int], n: int) -> Optional[str]:
    """None if ``mapping`` is a bijection of 0..n-1 that fixes 0, else why not."""
    if len(mapping) != n:
        return f"map has {len(mapping)} entries, expected {n}"
    if any(not 0 <= v < n for v in mapping):
        return "map entry out of range"
    if len(set(mapping)) != n:
        return "not injective"
    if mapping[0] != 0:
        return f"identity coset maps to {mapping[0]}, not 0"
    return None


def homomorphism_defect(
    gx: FiniteGroup, h: CosetSystem, gy: FiniteGroup, k: CosetSystem
) -> Optional[str]:
    """None if h.cosets[i] -> k.cosets[i] respects products, else a witness.

    h and k are equally long coset lists of normal subgroups of gx and gy.
    Cosets multiply through any representatives, so the least ones do: the
    map respects products iff for all positions a, b the coset of
    h.reps[a]*h.reps[b] sits at the same position as the coset of
    k.reps[a]*k.reps[b].  Each side is read straight off the systems'
    lookup tables, with no quotient group built.

    The map is proved on generators, by Light's test as in validate_table:
    the positions b that respect products with every a are closed under
    the product, so it is enough to check the cosets of gx's greedy
    generating set (_generators, kept on gx), O(kappa * |gens|) table reads
    in place of O(kappa^2).  Only when a generator fails does the full
    scan over every (a, b), row by row, run, to name the first failing pair.
    """
    h_at, k_at = h._where.__getitem__, k._where.__getitem__
    rows_x = [gx.op[r] for r in h.reps]
    rows_y = [gy.op[s] for s in k.reps]
    for b in dict.fromkeys(map(h_at, gx._generating_set)):
        left = list(map(h_at, map(itemgetter(h.reps[b]), rows_x)))
        right = list(map(k_at, map(itemgetter(k.reps[b]), rows_y)))
        if left != right:
            break
    else:
        return None
    for a, (ra, sa) in enumerate(zip(h.reps, k.reps)):
        left = list(map(h_at, map(gx.op[ra].__getitem__, h.reps)))
        right = list(map(k_at, map(gy.op[sa].__getitem__, k.reps)))
        if left != right:
            b = next(b for b, (u, v) in enumerate(zip(left, right)) if u != v)
            return f"not homomorphic at cosets ({a},{b})"
    return None


class IsoCheck(NamedTuple):
    """Outcome of a quotient-isomorphism check; witness explains failures."""

    ok: bool
    witness: Optional[str] = None


def check_quotient_iso(
    gx: FiniteGroup,
    h: Mask,
    gy: FiniteGroup,
    k: Mask,
    mapping: Sequence[int],
) -> IsoCheck:
    """Is ``mapping`` an isomorphism gx/h -> gy/k on canonical coset indices?

    The map must send coset index 0 to 0 (identity to identity), be a
    bijection, and respect the quotient operations.  A size mismatch between
    the quotients raises IncompatibleQuotientsError; all other failures come
    back as IsoCheck(False, witness).  The products are proved by
    homomorphism_defect on the cosets of gx's generators; its full scan
    over every pair of cosets runs only to name the witness of a map that
    fails.  This is the index-map form for callers outside a frame: Frame
    keeps its records as paired coset lists and runs homomorphism_defect on
    them directly.
    """
    hs = enumerate_cosets(gx, h)
    ks = enumerate_cosets(gy, k)
    if hs.count != ks.count:
        raise IncompatibleQuotientsError(f"quotient orders differ: {hs.count} vs {ks.count}")
    witness = map_defect(mapping, hs.count)
    if witness is None:
        witness = homomorphism_defect(gx, hs, gy, ks.permuted(mapping))
    return IsoCheck(witness is None, witness)
