"""The atomic relation algebra that a checked frame generates.

Atoms are index triples ((x,y),alpha): over the pair of groups (G_x, G_y)
the alpha-th relation glues H-cosets to shifted K-cosets.  Everything the
algebra does (converse, composition, the Boolean operations) happens on
atom index sets; concrete pair sets are only materialized on request, which
is what the relation oracle then cross-checks.

Composition is read off the isomorphism G_x/M0 -> G_y/P0 -> G_z/N0 that a
related triple (x,y,z) induces, with P0 = K_xy*H_yz (frames._p0): condition
(iv) holds exactly when it makes every composition of two atoms a union of
atoms, so one lookup rule per triple, built on first use, answers every
atom pair of that triple.  Elements compose one triple at a time: their
atoms are grouped by pair, and each triple both operands reach reads all
its atom pairs off its rule at once.

The closed forms for pairs with a square atom (fast_compose_subidentity)
read the same way: H and K are normal, so a translate or product of their
cosets is the coset of a product of representatives, one coset lookup each.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import FrameMismatchError, InvalidFrameError, UncheckedFrameError
from .frames import Frame, _p0, _slots, check_frame_reduced
from .groups import iter_bits
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


_NO_ATOMS: frozenset[AtomIndex] = frozenset()

# atoms_at, k_rows, h_reps of one related triple; see GroupRelationAlgebra._rule
_Rule = tuple[list[frozenset[AtomIndex]], list[tuple[int, ...]], tuple[int, ...]]


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
    """A union of atoms of one frame, kept as an atom-index set.

    Elements are read-only values: they hash by frame and atoms, and an
    algebra hands its one empty element to every caller (see
    GroupRelationAlgebra.zero), so neither field can be assigned.
    """

    __slots__ = ("_algebra", "_atoms")

    def __init__(self, algebra: "GroupRelationAlgebra", atoms: frozenset[AtomIndex]):
        self._algebra = algebra
        self._atoms = atoms

    @property
    def algebra(self) -> "GroupRelationAlgebra":
        return self._algebra

    @property
    def atoms(self) -> frozenset[AtomIndex]:
        return self._atoms

    def union(self, other: "FrameElement") -> "FrameElement":
        self._algebra._require_element(other)
        return FrameElement(self._algebra, self._atoms | other._atoms)

    def intersect(self, other: "FrameElement") -> "FrameElement":
        self._algebra._require_element(other)
        return FrameElement(self._algebra, self._atoms & other._atoms)

    def complement(self) -> "FrameElement":
        return FrameElement(self._algebra, self._algebra.all_atoms - self._atoms)

    __or__ = union
    __and__ = intersect

    def converse(self) -> "FrameElement":
        return self._algebra.converse(self)

    def compose(self, other: "FrameElement") -> "FrameElement":
        return self._algebra.compose(self, other)

    def relation(self) -> ConcreteRelation:
        return self._algebra.materialize(self)

    def sorted_atoms(self) -> list[AtomIndex]:
        return sorted(self._atoms, key=self._algebra.atom_key)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrameElement):
            return NotImplemented
        return self._algebra.frame is other._algebra.frame and self._atoms == other._atoms

    def __hash__(self) -> int:
        return hash((id(self._algebra.frame), self._atoms))

    def __len__(self) -> int:
        return len(self._atoms)

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

    # the empty element, set on first use by zero()
    _zero: FrameElement | None = None

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
        # the algebra's one object of each atom, which every method hands out;
        # a plain (x, y, alpha) key finds it, so none is built after this
        self._own = {a: a for a in atoms}
        self.all_atoms = frozenset(self._own)  # reuses the dict's hashes
        self._rules: dict[tuple[str, str, str], _Rule] = {}

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
            if self._own.get(a) is a:
                return
        except TypeError:  # unhashable, so no atom: the type tests name it
            pass
        if type(a) is not AtomIndex:
            raise ValueError(f"{a!r} is not an AtomIndex")
        if type(a.alpha) is not int or a not in self.all_atoms:
            raise ValueError(f"{a!r} is not an atom of this frame")

    def _require_element(self, e: FrameElement) -> None:
        """The one element gate: e must be a FrameElement of this frame.

        An element of any algebra over this Frame object passes; its atoms
        passed _require_atom when that algebra made it, so nothing past this
        gate checks them again.
        """
        if not isinstance(e, FrameElement) or e._algebra.frame is not self.frame:
            raise FrameMismatchError("elements belong to different frames")

    def element(self, atoms: Iterable[AtomIndex]) -> FrameElement:
        """The union of the given atoms, each passed through _require_atom
        before any is hashed."""
        atoms = list(atoms)
        for a in atoms:
            self._require_atom(a)
        return FrameElement(self, frozenset(atoms))

    def zero(self) -> FrameElement:
        """The empty element, one object per algebra, built on first use.

        compose_atoms returns it for every pair whose middles differ.  It is
        not built in __init__: an algebra that holds an element of its own
        is a reference cycle, which only the cyclic collector frees, and
        most algebras (one point query, say) never ask for it.
        """
        empty = self._zero
        if empty is None:
            empty = self._zero = FrameElement(self, _NO_ATOMS)
        return empty

    def unit(self) -> FrameElement:
        return FrameElement(self, self.all_atoms)

    def identity_element(self) -> FrameElement:
        return FrameElement(self, frozenset(self._own[(x, x, 0)] for x in self.frame.order))

    # -- the operations --------------------------------------------------

    def converse_atom(self, a: AtomIndex) -> AtomIndex:
        self._require_atom(a)
        h = self.frame.records[(a.x, a.y)].h
        # H is normal, so the inverse of the coset rH is the coset of r^-1
        return self._own[(a.y, a.x, h.coset_of(self.frame.groups[a.x].inverse[h.reps[a.alpha]]))]

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
        atoms_at, k_rows, h_reps = rule
        return FrameElement(self, atoms_at[k_rows[a.alpha][h_reps[b.alpha]]])

    def _rule(self, x: str, y: str, z: str) -> _Rule:
        """Build and keep the rule of the related triple (x,y,z).

        K_alpha*H_beta is the P0-coset of k*h for any k in K_alpha and h in
        H_beta, because K_xy is normal; the least coset elements serve as k
        and h.  The composite holds the (x,z) atoms whose H_xz-cosets lie in
        the M0-coset that the induced isomorphism pairs with that P0-coset
        (frames._slots).  So the rule is three tables: atoms_at, the
        composite for each element of G_y (one frozenset of the algebra's
        own atom objects, shared by a whole P0-coset); k_rows, the row of
        G_y's table for each k; and h_reps, each h.  The answer for
        (alpha, beta) is atoms_at[k_rows[alpha][h_reps[beta]]].
        P0 is the system frames._p0 gives, the one the frame check read; M0
        and N0 get no system of their own.
        """
        frame, records, own = self.frame, self.frame.records, self._own
        p = _p0(frame, x, y, z)
        inside: list[list[AtomIndex]] = [[] for _ in range(p.count)]
        for g, j in enumerate(_slots(records[(y, x)], records[(x, z)], p)):
            inside[j].append(own[(x, z, g)])
        sets = [frozenset(atoms) for atoms in inside]
        atoms_at = [sets[j] for j in p._where]
        k_rows = [frame.groups[y].op[r] for r in records[(x, y)].k.reps]
        rule = self._rules[(x, y, z)] = (atoms_at, k_rows, records[(y, z)].h.reps)
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
        frame = self.frame
        if a.y != b.x:
            return self.compose_atoms(a, b)
        if a.x == a.y:
            # alpha*H_beta
            h = frame.records[(b.x, b.y)].h
            gamma = h.coset_of(frame.groups[a.x].op[a.alpha][h.reps[b.alpha]])
            return FrameElement(self, frozenset([self._own[(b.x, b.y, gamma)]]))
        if b.x == b.y:
            # K_alpha*beta
            k = frame.records[(a.x, a.y)].k
            gamma = k.coset_of(frame.groups[b.x].op[k.reps[a.alpha]][b.alpha])
            return FrameElement(self, frozenset([self._own[(a.x, a.y, gamma)]]))
        if b.y == a.x:
            # H_alpha*H_beta, whose elements name the square atoms
            h = frame.records[(a.x, a.y)].h
            prod = h.cosets[h.coset_of(frame.groups[a.x].op[h.reps[a.alpha]][h.reps[b.alpha]])]
            own = self._own
            return FrameElement(self, frozenset(own[(a.x, a.x, f)] for f in iter_bits(prod)))
        return self.compose_atoms(a, b)

    def converse(self, e: FrameElement) -> FrameElement:
        self._require_element(e)
        return FrameElement(self, frozenset(self.converse_atom(a) for a in e._atoms))

    def compose(self, e1: FrameElement, e2: FrameElement) -> FrameElement:
        """The union of a;b over the atoms a of e1 and b of e2, read one
        related triple at a time (see _compose_by_triple)."""
        self._require_element(e1)
        self._require_element(e2)
        return FrameElement(self, self._compose_by_triple(e1._atoms, e2._atoms))

    def _compose_by_triple(
        self, left: frozenset[AtomIndex], right: frozenset[AtomIndex]
    ) -> frozenset[AtomIndex]:
        """The alphas of left grouped by pair (x,y), the betas of right by
        middle y, then by z: each triple (x,y,z) that both sides reach
        fetches its rule once and reads the answers of all its alpha x beta
        pairs off it in one pass.  Pairs whose middles differ are never
        formed.
        """
        alphas_at: dict[tuple[str, str], list[int]] = {}
        for x, y, alpha in left:
            alphas_at.setdefault((x, y), []).append(alpha)
        betas_at: dict[str, dict[str, list[int]]] = {}
        for y, z, beta in right:
            betas_at.setdefault(y, {}).setdefault(z, []).append(beta)
        rules = self._rules
        answers: list[frozenset[AtomIndex]] = []
        for (x, y), alphas in alphas_at.items():
            for z, betas in betas_at.get(y, {}).items():
                rule = rules.get((x, y, z))
                if rule is None:
                    rule = self._rule(x, y, z)
                atoms_at, k_rows, h_reps = rule
                answers += [
                    atoms_at[k_rows[alpha][h_reps[beta]]] for alpha in alphas for beta in betas
                ]
        return frozenset().union(*answers)

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
        frame, base = self.frame, self.base
        rows = [0] * base.size
        for a in e._atoms:
            record = frame.records[(a.x, a.y)]
            k, op, offy = record.k, frame.groups[a.y].op, base.offsets[a.y]
            shift, where, cosets = k.reps[a.alpha], k._where, k.cosets
            cols = [cosets[where[op[rep][shift]]] << offy for rep in k.reps]
            for p, i in enumerate(record.h._where, base.offsets[a.x]):
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
            one_x = own[(x, x, 0)]
            one = FrameElement(self, frozenset([one_x]))
            squares = frozenset(own[(x, x, b)] for b in range(records[(x, x)].kappa))
            square = self.compose(self.compose(one, FrameElement(self, squares)), one)
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
