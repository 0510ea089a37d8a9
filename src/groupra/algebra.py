"""The atomic relation algebra that a checked frame generates.

Atoms are index triples ((x,y),alpha): over the pair of groups (G_x, G_y)
the alpha-th relation glues H-cosets to shifted K-cosets.  Everything the
algebra does (converse, composition, the Boolean operations) happens on
atom index sets, each kept as one int: bit i stands for atoms()[i].  The
atoms of a pair (x,y) sit next to each other in that order, so the alphas
of the pair are one chunk of kappa_xy bits, and every operation reads an
element pair by pair, over the pairs GroupRelationAlgebra._span gives: from
the pair of its lowest atom to that of its highest, the one bound of every
walk over an element.  No element holds a set of atoms: FrameElement.atoms
builds one on each access.  Concrete pair sets are only materialized on
request, which is what the relation oracle then cross-checks.

Composition is read off the isomorphism G_x/M0 -> G_y/P0 -> G_z/N0 that a
related triple (x,y,z) induces, with P0 = K_xy*H_yz (frames._p0): condition
(iv) holds exactly when it makes every composition of two atoms a union of
atoms, so one lookup rule per triple, built on first use, answers every
atom pair of that triple.  Elements compose one triple at a time: each
triple both operands reach reads all its atom pairs off its rule at once.

The closed forms for pairs with a square atom (fast_compose_subidentity)
read the same way: H and K are normal, so a translate or product of their
cosets is the coset of a product of representatives, one coset lookup each.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, NamedTuple

from .errors import FrameMismatchError, InvalidFrameError, UncheckedFrameError
from .frames import Frame, _p0, _slots, check_frame_reduced
from .relations import ConcreteRelation, identity_on

__all__ = [
    "AtomIndex",
    "BaseSpace",
    "FrameElement",
    "MeasureEntry",
    "MeasureReport",
    "GroupRelationAlgebra",
]


class AtomIndex(NamedTuple):
    x: str
    y: str
    alpha: int

    def label(self) -> str:
        return f"(({self.x},{self.y}),{self.alpha})"


# atoms_at, k_rows, h_reps, shift of one related triple; see GroupRelationAlgebra._rule
_Rule = tuple[list[int], list[tuple[int, ...]], tuple[int, ...], int]
# x, y, the bit of ((x,y),0), and kappa_xy one bits: one pair's place in a mask
_Pair = tuple[str, str, int, int]


def _bits(mask: int) -> list[int]:
    """The set bits of mask, ascending.

    A few bits are taken lowest first, by mask & -mask; each step costs a
    pass over the whole mask, so more bits are read off its binary digits,
    written out once: one step per digit where most digits are 1, and one
    str.find per set bit, which skips the 0 digits in C, where few are.
    """
    count = mask.bit_count()
    if count <= 8:
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out
    digits = bin(mask)[:1:-1]
    if 4 * count >= len(digits):
        return [i for i, digit in enumerate(digits) if digit == "1"]
    out, i = [], digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


class BaseSpace:
    """Global element ids: groups laid out end to end in declaration order."""

    def __init__(self, frame: Frame):
        self.offsets: dict[str, int] = {}
        total = 0
        for x in frame.order:
            self.offsets[x] = total
            total += frame.groups[x].order
        self.size = total

    def span(self, x: str, order: int) -> int:
        """Bitmask of the ids belonging to group x."""
        return ((1 << order) - 1) << self.offsets[x]


class FrameElement:
    """A union of atoms of one frame, kept as one int: bit i stands for
    algebra.atoms()[i].

    Elements are read-only values: they hash by frame and mask, and an
    algebra hands its one empty element to every caller (see
    GroupRelationAlgebra.zero), so neither field can be assigned.  ``atoms``
    builds a frozenset of the algebra's own atom objects on each access.
    """

    __slots__ = ("_algebra", "_mask")

    def __init__(self, algebra: "GroupRelationAlgebra", mask: int):
        self._algebra = algebra
        self._mask = mask

    @property
    def algebra(self) -> "GroupRelationAlgebra":
        return self._algebra

    @property
    def atoms(self) -> frozenset[AtomIndex]:
        return frozenset(map(self._algebra._atoms.__getitem__, _bits(self._mask)))

    def union(self, other: "FrameElement") -> "FrameElement":
        self._algebra._require_element(other)
        return FrameElement(self._algebra, self._mask | other._mask)

    def intersect(self, other: "FrameElement") -> "FrameElement":
        self._algebra._require_element(other)
        return FrameElement(self._algebra, self._mask & other._mask)

    def complement(self) -> "FrameElement":
        return FrameElement(self._algebra, ((1 << len(self._algebra._atoms)) - 1) ^ self._mask)

    __or__ = union
    __and__ = intersect

    def converse(self) -> "FrameElement":
        return self._algebra.converse(self)

    def compose(self, other: "FrameElement") -> "FrameElement":
        return self._algebra.compose(self, other)

    def relation(self) -> ConcreteRelation:
        return self._algebra.materialize(self)

    def sorted_atoms(self) -> list[AtomIndex]:
        """The atoms in bit order, which is atom_key order: pairs run by
        position of x, then of y, and each block keeps declaration order."""
        atoms = self._algebra._atoms
        return [atoms[i] for i in _bits(self._mask)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrameElement):
            return NotImplemented
        return self._algebra.frame is other._algebra.frame and self._mask == other._mask

    def __hash__(self) -> int:
        return hash((id(self._algebra.frame), self._mask))

    def __len__(self) -> int:
        return self._mask.bit_count()

    def __repr__(self) -> str:
        inner = ",".join(a.label() for a in self.sorted_atoms())
        return "{" + inner + "}"


class MeasureEntry(NamedTuple):
    x: str
    atom: AtomIndex
    measure: int


class MeasureReport(NamedTuple):
    entries: tuple[MeasureEntry, ...]
    pair_dense: bool
    singleton_dense: bool


class GroupRelationAlgebra:
    """Atom-level operations over a frame that already passed a check."""

    # the empty element, set on first use by zero(), and the pair layout,
    # set on first use by _span
    _zero: FrameElement | None = None
    _layout: tuple[list[_Pair], list[int]] | None = None

    def __init__(self, frame: Frame):
        report = frame.last_check
        if report is None:
            raise UncheckedFrameError(
                "frame has not been checked; run check_frame_reduced (or _full) first"
            )
        if not report.ok:
            raise InvalidFrameError("frame failed its check; no algebra exists for it")
        self.frame = frame
        self.base = BaseSpace(frame)
        new = tuple.__new__  # builds each atom in C, past AtomIndex's Python __new__
        records = frame.records.items()
        atoms = [new(AtomIndex, (x, y, a)) for (x, y), r in records for a in range(r.kappa)]
        self._atoms = tuple(atoms)
        # the bit of each atom; a plain (x, y, alpha) key finds it, and
        # _atoms[bit] is the algebra's one object of the atom, which every
        # method hands out, so none is built after this
        self._own = dict(zip(atoms, range(len(atoms))))
        self._rules: dict[tuple[str, str, str], _Rule] = {}
        # alpha -> the alpha of its converse, per pair; see _flip
        self._flips: dict[tuple[str, str], list[int]] = {}

    # -- atom bookkeeping ------------------------------------------------

    def atoms(self) -> tuple[AtomIndex, ...]:
        return self._atoms

    def atom_key(self, a: AtomIndex) -> tuple[int, int, int]:
        return (self.frame.pos[a.x], self.frame.pos[a.y], a.alpha)

    def _require_atom(self, a: AtomIndex) -> None:
        """The one atom gate: a must be an AtomIndex of this frame.

        Every method that takes atoms calls it, and nothing past it checks an
        atom again.  The algebra's own atom objects, which its methods hand
        out, pass by identity.  Any other value is type-tested first: a plain
        tuple, AtomIndex("0","1",True) and AtomIndex("0","1",1.0) all equal
        an atom, and membership alone would let them in.
        """
        try:
            if self._atoms[self._own[a]] is a:
                return
        except (KeyError, TypeError):  # no atom, or unhashable: the tests below name it
            pass
        if type(a) is not AtomIndex:
            raise ValueError(f"{a!r} is not an AtomIndex")
        if type(a.alpha) is not int or a not in self._own:
            raise ValueError(f"{a!r} is not an atom of this frame")

    def _require_element(self, e: FrameElement) -> None:
        """The one element gate: e must be a FrameElement of this frame.

        An element of any algebra over this Frame object passes: both lay
        their atoms out alike, and the algebra that made e gated its atoms
        through _require_atom, so nothing past this gate checks them again.
        """
        if not isinstance(e, FrameElement) or e._algebra.frame is not self.frame:
            raise FrameMismatchError("elements belong to different frames")

    def _span(self, mask: int) -> list[_Pair]:
        """(x, y, offset, full) for each related pair (x,y) from the pair of
        mask's lowest atom to that of its highest, in atom order, and none
        for the empty mask: bit offset + alpha stands for ((x,y),alpha), and
        full is the chunk of all kappa_xy atoms.  The one bound of every walk
        over an element, so a small element of a large algebra visits few
        pairs.  The layout is built on first use, not in __init__, so an
        algebra that reads no element (one point query, say) pays nothing.
        """
        layout = self._layout
        if layout is None:
            own = self._own
            pairs = [
                (x, y, own[(x, y, 0)], (1 << r.kappa) - 1)
                for (x, y), r in self.frame.records.items()
            ]
            layout = self._layout = (pairs, [p[2] for p in pairs])
        if not mask:
            return []
        pairs, offsets = layout
        low = bisect_right(offsets, (mask & -mask).bit_length() - 1) - 1
        return pairs[low : bisect_right(offsets, mask.bit_length() - 1, low)]

    def element(self, atoms: Iterable[AtomIndex]) -> FrameElement:
        """The union of the given atoms, each passed through _require_atom
        before any is hashed.  The bits are set in a byte array and read
        as one int at the end: ORing each bit into a growing int would cost
        a pass over the whole mask per atom."""
        atoms = list(atoms)
        for a in atoms:
            self._require_atom(a)
        own, bits = self._own, bytearray((len(self._atoms) + 7) >> 3)
        for a in atoms:
            i = own[a]
            bits[i >> 3] |= 1 << (i & 7)
        return FrameElement(self, int.from_bytes(bits, "little"))

    def zero(self) -> FrameElement:
        """The empty element, one object per algebra, built on first use.

        compose_atoms returns it for every pair whose middles differ.  It is
        not built in __init__: an algebra that holds an element of its own
        is a reference cycle, which only the cyclic collector frees, and
        most algebras (one point query, say) never ask for it.
        """
        empty = self._zero
        if empty is None:
            empty = self._zero = FrameElement(self, 0)
        return empty

    def unit(self) -> FrameElement:
        return FrameElement(self, (1 << len(self._atoms)) - 1)

    def identity_element(self) -> FrameElement:
        own, mask = self._own, 0
        for x in self.frame.order:
            mask |= 1 << own[(x, x, 0)]
        return FrameElement(self, mask)

    # -- the operations --------------------------------------------------

    def _flip(self, x: str, y: str) -> list[int]:
        """alpha -> the alpha of the converse of ((x,y),alpha), an atom of
        (y,x); built on first use, one table per pair."""
        flip = self._flips.get((x, y))
        if flip is None:
            h = self.frame.records[(x, y)].h
            inverse, where = self.frame.groups[x].inverse, h._where
            # H is normal, so the inverse of the coset rH is the coset of r^-1
            flip = self._flips[(x, y)] = [where[inverse[r]] for r in h.reps]
        return flip

    def converse_atom(self, a: AtomIndex) -> AtomIndex:
        self._require_atom(a)
        return self._atoms[self._own[(a.y, a.x, 0)] + self._flip(a.x, a.y)[a.alpha]]

    def compose_atoms(self, a: AtomIndex, b: AtomIndex) -> FrameElement:
        """a;b, read off the rule of the triple (x,y,z) when a.y == b.x.

        A composable pair gets a new element on each call.  A pair whose
        middles differ, most pairs of a frame with several groups, gets the
        algebra's one empty element (zero()) once the atom gate has passed
        both atoms.  That element is built on first use, not in __init__: an
        eager one would make every algebra a reference cycle, even one that
        composes only composable pairs.
        """
        self._require_atom(a)
        self._require_atom(b)
        if a.y != b.x:
            return self.zero()
        rule = self._rules.get((a.x, a.y, b.y))
        if rule is None:
            rule = self._rule(a.x, a.y, b.y)
        atoms_at, k_rows, h_reps, shift = rule
        return FrameElement(self, atoms_at[k_rows[a.alpha][h_reps[b.alpha]]] << shift)

    def _rule(self, x: str, y: str, z: str) -> _Rule:
        """Build and keep the rule of the related triple (x,y,z).

        K_alpha*H_beta is the P0-coset of k*h for any k in K_alpha and h in
        H_beta, because K_xy is normal; the least coset elements serve as k
        and h.  The composite holds the (x,z) atoms whose H_xz-cosets lie in
        the M0-coset that the induced isomorphism pairs with that P0-coset
        (frames._slots).  So the rule is three tables and a shift: atoms_at,
        the composite for each element of G_y (one chunk of (x,z) alphas,
        shared by a whole P0-coset); k_rows, the row of G_y's table for each
        k; h_reps, each h; and shift, the bit of ((x,z),0).  The answer for
        (alpha, beta) is atoms_at[k_rows[alpha][h_reps[beta]]] << shift.
        Each chunk is kappa_xz bits wide, not as wide as the whole algebra.
        P0 is the system frames._p0 gives, the one the frame check read; M0
        and N0 get no system of their own.
        """
        frame, records = self.frame, self.frame.records
        p = _p0(frame, x, y, z)
        inside = [0] * p.count
        for g, j in enumerate(_slots(records[(y, x)], records[(x, z)], p)):
            inside[j] |= 1 << g
        atoms_at = [inside[j] for j in p._where]
        k_rows = [frame.groups[y].op[r] for r in records[(x, y)].k.reps]
        rule = (atoms_at, k_rows, records[(y, z)].h.reps, self._own[(x, z, 0)])
        self._rules[(x, y, z)] = rule
        return rule

    def fast_compose_subidentity(self, a: AtomIndex, b: AtomIndex) -> FrameElement:
        """Closed-form composition when a square pair is involved.

        Handles (x,x);(x,z), (x,y);(y,y) and the round trip (x,y);(y,x);
        anything else falls back to compose_atoms.  H and K are normal, so a
        translate or product of their cosets is the coset of the product of
        representatives: each closed form is one coset lookup on the proven
        record, and its atoms are built without a second check.
        """
        self._require_atom(a)
        self._require_atom(b)
        frame, own = self.frame, self._own
        if a.y != b.x:
            return self.compose_atoms(a, b)
        if a.x == a.y:
            # alpha*H_beta
            h = frame.records[(b.x, b.y)].h
            gamma = h.coset_of(frame.groups[a.x].op[a.alpha][h.reps[b.alpha]])
            return FrameElement(self, 1 << own[(b.x, b.y, gamma)])
        if b.x == b.y:
            # K_alpha*beta
            k = frame.records[(a.x, a.y)].k
            gamma = k.coset_of(frame.groups[b.x].op[k.reps[a.alpha]][b.alpha])
            return FrameElement(self, 1 << own[(a.x, a.y, gamma)])
        if b.y == a.x:
            # H_alpha*H_beta, whose elements are the alphas of the square atoms
            h = frame.records[(a.x, a.y)].h
            prod = h.cosets[h.coset_of(frame.groups[a.x].op[h.reps[a.alpha]][h.reps[b.alpha]])]
            return FrameElement(self, prod << own[(a.x, a.x, 0)])
        return self.compose_atoms(a, b)

    def converse(self, e: FrameElement) -> FrameElement:
        """Each pair's chunk mapped through the pair's _flip table onto the
        chunk of (y,x); the chunk of all of a pair's atoms maps onto the
        chunk of all of (y,x)'s, which needs no table."""
        self._require_element(e)
        own, mask, out = self._own, e._mask, 0
        for x, y, offset, full in self._span(mask):
            chunk = mask >> offset & full
            if not chunk:
                continue
            if chunk != full:
                flip, alphas, chunk = self._flip(x, y), _bits(chunk), 0
                for alpha in alphas:
                    chunk |= 1 << flip[alpha]
            out |= chunk << own[(y, x, 0)]
        return FrameElement(self, out)

    def compose(self, e1: FrameElement, e2: FrameElement) -> FrameElement:
        """The union of a;b over the atoms a of e1 and b of e2, read one
        related triple at a time (see _compose_by_triple)."""
        self._require_element(e1)
        self._require_element(e2)
        return FrameElement(self, self._compose_by_triple(e1._mask, e2._mask))

    def _compose_by_triple(self, left: int, right: int) -> int:
        """The chunks of right grouped by middle y, then read pair by pair
        along left, each side over its _span: each triple (x,y,z) that both
        sides reach fetches its rule once, ORs the answers of all its alpha x
        beta pairs and shifts them into place once.  Pairs whose middles
        differ are never formed.

        Both loops cut their chunks themselves, as converse and materialize
        do: reading the operands through a shared chunk generator made warm
        compositions of a few atoms each (table-cyclic's) about 10% slower,
        and through a list about 5%.
        """
        betas_at: dict[str, list[tuple[str, list[int]]]] = {}
        for y, z, offset, full in self._span(right):
            chunk = right >> offset & full
            if chunk:
                betas_at.setdefault(y, []).append((z, _bits(chunk)))
        rules, out = self._rules, 0
        for x, y, offset, full in self._span(left):
            reached = betas_at.get(y)
            chunk = left >> offset & full
            if reached is None or not chunk:
                continue
            alphas = _bits(chunk)
            for z, betas in reached:
                rule = rules.get((x, y, z))
                if rule is None:
                    rule = self._rule(x, y, z)
                atoms_at, k_rows, h_reps, shift = rule
                union = 0
                for alpha in alphas:
                    row = k_rows[alpha]
                    for beta in betas:
                        union |= atoms_at[row[h_reps[beta]]]
                out |= union << shift
        return out

    # -- materialization -------------------------------------------------

    def atom_relation(self, a: AtomIndex) -> ConcreteRelation:
        """The pairs of atom a (see materialize), built afresh on each call;
        a passes the atom gate once, in element."""
        return self.materialize(self.element([a]))

    def materialize(self, e: FrameElement) -> ConcreteRelation:
        """The pairs of e's atoms on global ids; the algebra keeps none.

        e passes _require_element, and its atoms are not gated again.  The
        atom ((x,y),alpha) is the union over i of H_i x (K_i * K_alpha).  K
        is normal, so K_i * K_alpha is the one K-coset holding k_i*k_alpha,
        read off the coset lookup and shifted to G_y's ids as the column mask
        of H_i; each row of G_x ORs in the mask of its H-coset.
        """
        self._require_element(e)
        frame, base, mask = self.frame, self.base, e._mask
        rows = [0] * base.size
        for x, y, offset, full in self._span(mask):
            chunk = mask >> offset & full
            if not chunk:
                continue
            record = frame.records[(x, y)]
            k, op, offy = record.k, frame.groups[y].op, base.offsets[y]
            reps, where, cosets = k.reps, k._where, k.cosets
            h_where, offx = record.h._where, base.offsets[x]
            for alpha in _bits(chunk):
                shift = reps[alpha]
                cols = [cosets[where[op[rep][shift]]] << offy for rep in reps]
                for p, i in enumerate(h_where, offx):
                    rows[p] |= cols[i]
        return ConcreteRelation(base.size, tuple(rows))

    def unit_relation(self) -> ConcreteRelation:
        """The union of all rectangles G_x x G_y over related pairs."""
        rows = [0] * self.base.size
        for block in self.frame.blocks:
            cols = 0
            for y in block:
                cols |= self.base.span(y, self.frame.groups[y].order)
            for x in block:
                off = self.base.offsets[x]
                for e in range(self.frame.groups[x].order):
                    rows[off + e] = cols
        return ConcreteRelation(self.base.size, tuple(rows))

    def identity_relation(self) -> ConcreteRelation:
        return identity_on(self.base.size)

    # -- reporting -------------------------------------------------------

    def measure_report(self) -> MeasureReport:
        """Sub-identity atoms 1'_x with their measures, read off the atom table.

        The measure of 1'_x is the number of atoms in 1'_x;1;1'_x, each of
        which must be a permutation: conv(a);a = a;conv(a) = 1'_x.  The last
        ;1'_x keeps only composites whose middle is x, and those come only
        from the square atoms ((x,x),beta) of 1, so 1'_x is composed with
        them alone.  No relation is materialized.
        """
        records, own = self.frame.records, self._own
        entries = []
        for x in self.frame.order:
            bit = own[(x, x, 0)]
            one_x, one = self._atoms[bit], FrameElement(self, 1 << bit)
            squares = FrameElement(self, ((1 << records[(x, x)].kappa) - 1) << bit)
            square = self.compose(self.compose(one, squares), one)
            for a in square.sorted_atoms():
                inverse = self.converse_atom(a)
                if not self.compose_atoms(inverse, a) == self.compose_atoms(a, inverse) == one:
                    raise RuntimeError(f"square atom {a.label()} is not functional")
            entries.append(MeasureEntry(x, one_x, len(square)))
        return MeasureReport(
            tuple(entries),
            pair_dense=all(e.measure <= 2 for e in entries),
            singleton_dense=all(e.measure == 1 for e in entries),
        )

    def is_simple(self) -> bool:
        """Simple iff there is exactly one (nonempty) block."""
        return len(self.frame.order) > 0 and len(self.frame.blocks) == 1

    def decompose(self) -> list[Frame]:
        """One checked sub-frame per block; empty list for the empty frame.

        Each component is checked so that it carries the verdict that
        GroupRelationAlgebra(component) asks for.  The check cannot fail:
        a component's triples are triples of this algebra's frame, which
        passed.
        """
        out = []
        for block in self.frame.blocks:
            ids = set(block)
            groups = {x: self.frame.groups[x] for x in self.frame.order if x in ids}
            isos = {key: rec for key, rec in self.frame.isos.items() if key[0] in ids}
            component = Frame(groups, [block], isos)
            check_frame_reduced(component)
            out.append(component)
        return out
