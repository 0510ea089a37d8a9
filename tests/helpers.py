"""Shared fixtures: deterministic random frame corpora, corrupted frames,
mutated frame texts and the census of small frames."""

import random
from itertools import permutations, product
from math import gcd
from pathlib import Path
from typing import Iterator, Optional

from groupra.builders import build_cyclic_frame, cyclic_iso_record
from groupra.algebra import AtomIndex, GroupRelationAlgebra
from groupra.errors import NotASubgroupError, NotNormalError
from groupra.frames import (
    Frame,
    IsoRecord,
    _agrees_on_generators,
    _coarse_images,
    _is_product,
    _p0,
    _slots,
    _times_normal,
)
from groupra.groups import (
    CosetSystem,
    FiniteGroup,
    enumerate_cosets,
    homomorphism_defect,
    is_subset,
    make_cyclic,
    mask_of,
    validate_table,
)


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def random_cyclic_spec(rng: random.Random, small: bool = False, multi_block: bool = False):
    """Orders plus a gcd-consistent kappa table, via one divisor t_x per group.

    kappa_xy = gcd(t_x, t_y) automatically satisfies the triple agreement
    condition: any common divisor of two of the gcds divides all three.
    """
    if small:
        count, max_order = rng.randint(1, 2), 6
    else:
        count, max_order = rng.randint(1, 4), 24
    while True:
        orders = [rng.randint(1, max_order) for _ in range(count)]
        if sum(orders) <= 100:
            break
    if multi_block and count >= 2:
        cut = rng.randint(1, count - 1)
        blocks = [range(cut), range(cut, count)]
    else:
        blocks = [range(count)]
    t = [rng.choice(divisors(n)) for n in orders]
    kappa = {}
    for block in blocks:
        for i in block:
            for j in block:
                if i < j:
                    kappa[(i, j)] = gcd(t[i], t[j])
    return orders, kappa


def cyclic_corpus() -> list[Frame]:
    """The running Z6/Z9 frame plus 25 seeded random cyclic frames."""
    frames = [build_cyclic_frame([6, 9], {(0, 1): 3})]
    rng = random.Random(20260823)
    for i in range(25):
        orders, kappa = random_cyclic_spec(
            rng, small=(i % 2 == 0), multi_block=(i % 5 == 4)
        )
        frames.append(build_cyclic_frame(orders, kappa))
    return frames


def multiblock_corpus() -> list[Frame]:
    """Ten frames with at least two blocks each."""
    frames = []
    rng = random.Random(97)
    while len(frames) < 10:
        orders, kappa = random_cyclic_spec(rng, multi_block=True)
        if len(orders) >= 2:
            frames.append(build_cyclic_frame(orders, kappa))
    return frames


def corrupt_map(base: Frame, pair: tuple[str, str], unit: int) -> Frame:
    """Reorder one stored K-system by the automorphism i -> unit*i of Z_kappa.

    Each record stays a genuine quotient isomorphism, so the constructor
    accepts the result, but the records no longer fit together.
    """
    record = base.isos[pair]
    kappa = record.kappa
    if gcd(unit, kappa) != 1 or unit % kappa == 1:
        raise ValueError(f"need a unit other than 1 mod {kappa}, got {unit}")
    shuffled = tuple(record.k.cosets[(unit * i) % kappa] for i in range(kappa))
    twisted = IsoRecord(
        record.x, record.y, record.h, CosetSystem(record.k.subgroup, shuffled)
    )
    isos = dict(base.isos)
    isos[pair] = twisted
    return Frame(base.groups, base.blocks, isos)


def corrupt_kappa(rng: random.Random) -> Frame:
    """Three cyclic groups with one quotient size out of step with the others.

    kappa_01 = kappa_02 = d but kappa_12 = d' < d, so the image of
    H_01*H_02 under the first map is strictly smaller than K_01*H_12.
    """
    d = rng.choice([4, 6, 8, 9])
    smaller = {4: 2, 6: 2, 8: 4, 9: 3}[d]
    orders = [d * rng.randint(1, 24 // d) for _ in range(3)]
    groups = {str(i): make_cyclic(n) for i, n in enumerate(orders)}
    isos = {
        ("0", "1"): cyclic_iso_record("0", "1", orders[0], orders[1], d),
        ("0", "2"): cyclic_iso_record("0", "2", orders[0], orders[2], d),
        ("1", "2"): cyclic_iso_record("1", "2", orders[1], orders[2], smaller),
    }
    return Frame(groups, [["0", "1", "2"]], isos)


def verdict_corpus() -> tuple[list[Frame], list[Frame]]:
    """80 sound frames and 20 corrupted ones for the checker-agreement sweep."""
    rng = random.Random(424242)
    sound = []
    for i in range(80):
        orders, kappa = random_cyclic_spec(
            rng, small=(i % 3 == 0), multi_block=(i % 5 == 0)
        )
        sound.append(build_cyclic_frame(orders, kappa))
    corrupted = []
    for _ in range(10):
        d = rng.choice([3, 4, 5, 6, 8, 9])
        units = [c for c in range(2, d) if gcd(c, d) == 1]
        orders = [d * rng.randint(1, 24 // d) for _ in range(3)]
        base = build_cyclic_frame(orders, {(i, j): d for i in range(3) for j in range(i + 1, 3)})
        pair = rng.choice([("0", "1"), ("0", "2"), ("1", "2")])
        corrupted.append(corrupt_map(base, pair, rng.choice(units)))
    for _ in range(10):
        corrupted.append(corrupt_kappa(rng))
    return sound, corrupted


SHIPPED_FRAMES = sorted((Path(__file__).resolve().parent.parent / "frames").glob("*.frame"))
MUTATION_SEED = 2018
MUTATION_COUNT = 1500
# overwrites draw from the text's own tokens half the time, else from these
MUTATION_VOCABULARY = "\n # x -1 07 0: :1 group table cyclic H K map end".split(" ")


def mutated_frame_texts(
    seed: int = MUTATION_SEED, count: int = MUTATION_COUNT
) -> Iterator[str]:
    """count texts, each a shipped frame with one to three of its tokens
    dropped, duplicated, truncated or overwritten; newlines count as tokens."""
    rng = random.Random(seed)
    texts = [path.read_text() for path in SHIPPED_FRAMES]
    for _ in range(count):
        tokens = [t for t in rng.choice(texts).replace("\n", " \n ").split(" ") if t]
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(tokens))
            kind = rng.choice(["drop", "duplicate", "truncate", "overwrite"])
            if kind == "drop":
                del tokens[i]
            elif kind == "duplicate":
                tokens.insert(i, tokens[i])
            elif kind == "truncate":
                tokens[i] = tokens[i][: rng.randrange(len(tokens[i]) or 1)]
            elif rng.random() < 0.5:
                tokens[i] = rng.choice(tokens)
            else:
                tokens[i] = rng.choice(MUTATION_VOCABULARY)
        yield " ".join(tokens)


KAPPA_MUTATION_COUNT = 600
# values a mutated kappa entry takes: non-positive, divisors, non-divisors, orders
KAPPA_VOCABULARY = (-1, 0, 1, 2, 3, 4, 5, 6, 8, 9, 12, 24)


def mutated_kappa_specs(
    seed: int = MUTATION_SEED, count: int = KAPPA_MUTATION_COUNT
) -> Iterator[tuple[list[int], object]]:
    """count (orders, kappa) pairs for build_cyclic_frame, alternately in
    mapping and in matrix form, each a random_cyclic_spec with one or two
    entries rewritten, added or dropped.

    A mapping gains keys out of range, on the diagonal or reversed; a
    matrix gains asymmetric pairs, wrong diagonals and short or missing
    rows.  Some mutations leave the spec valid.
    """
    rng = random.Random(seed)
    for i in range(count):
        orders, kappa = random_cyclic_spec(rng, small=(i % 4 == 0), multi_block=(i % 3 == 0))
        m = len(orders)
        if i % 2 == 0:
            spec = dict(kappa)
            for _ in range(rng.randint(1, 2)):
                kind = rng.choice(["rewrite", "add", "drop"])
                if kind == "rewrite" and spec:
                    spec[rng.choice(list(spec))] = rng.choice(KAPPA_VOCABULARY)
                elif kind == "drop" and spec:
                    del spec[rng.choice(list(spec))]
                else:
                    top = m if rng.random() < 0.2 else m - 1
                    key = (rng.randint(-(top == m), top), rng.randint(0, top))
                    spec[key] = rng.choice(KAPPA_VOCABULARY)
        else:
            spec = [[orders[r] if r == c else 0 for c in range(m)] for r in range(m)]
            for (r, c), value in kappa.items():
                spec[r][c] = spec[c][r] = value
            for _ in range(rng.randint(1, 2)):
                kind = rng.choice(["rewrite"] * 4 + ["shorten", "drop row"])
                row = rng.choice(spec)
                if kind == "rewrite" and row:
                    row[rng.randrange(len(row))] = rng.choice(KAPPA_VOCABULARY)
                elif kind == "shorten" and row:
                    del row[-1]
                elif kind == "drop row" and len(spec) > 1:
                    spec.remove(row)
        yield orders, spec


def frame_from_atom_table(alg: GroupRelationAlgebra) -> Frame:
    """The frame an algebra's atom table determines, asking only
    compose_atoms and converse_atom.

    The square atoms ((x,x),g) multiply as G_x does.  For a0 = ((x,y),0),
    a0;conv(a0) holds the square atoms of H_xy and conv(a0);a0 those of
    K_xy; ((x,x),g);a0 is the atom of g's H-coset and a0;((y,y),g) the
    atom of g's image-order K-coset.
    """

    def alpha(a: AtomIndex, b: AtomIndex) -> int:
        (atom,) = alg.compose_atoms(a, b).atoms
        return atom.alpha

    atoms = set(alg.atoms())
    order = list(dict.fromkeys(a.x for a in alg.atoms()))
    square = {x: [a for a in alg.atoms() if a.x == a.y == x] for x in order}
    groups = {
        x: validate_table([[alpha(a, b) for b in row] for a in row]) for x, row in square.items()
    }
    blocks = list(dict.fromkeys(tuple(y for y in order if (x, y, 0) in atoms) for x in order))
    isos = {}
    for block in blocks:
        for i, x in enumerate(block):
            for y in block[i + 1 :]:
                a0 = AtomIndex(x, y, 0)
                c0 = alg.converse_atom(a0)
                kappa = sum(1 for a in atoms if (a.x, a.y) == (x, y))
                h_cosets, k_cosets = [0] * kappa, [0] * kappa
                for g, a in enumerate(square[x]):
                    h_cosets[alpha(a, a0)] |= 1 << g
                for g, a in enumerate(square[y]):
                    k_cosets[alpha(a0, a)] |= 1 << g
                h = mask_of(a.alpha for a in alg.compose_atoms(a0, c0).atoms)
                k = mask_of(a.alpha for a in alg.compose_atoms(c0, a0).atoms)
                isos[(x, y)] = IsoRecord(
                    x, y, CosetSystem(h, tuple(h_cosets)), CosetSystem(k, tuple(k_cosets))
                )
    return Frame(groups, blocks, isos)


def census_groups() -> dict[str, FiniteGroup]:
    """Every group of order at most 4: Z1, Z2, Z3, Z4 and the Klein group V4."""
    groups = {f"Z{n}": make_cyclic(n, f"Z{n}") for n in range(1, 5)}
    groups["V4"] = validate_table([[a ^ b for b in range(4)] for a in range(4)], "V4")
    return groups


def _quotient_isos(gx: FiniteGroup, gy: FiniteGroup) -> list[tuple[CosetSystem, CosetSystem]]:
    """Every quotient isomorphism G_x/H -> G_y/K, as its paired coset lists.

    H and K run over the normal subgroups of equal index; the K-cosets over
    every order that keeps K first and passes homomorphism_defect.
    """

    def normal(g: FiniteGroup) -> list[CosetSystem]:
        systems = []
        for mask in range(1, 1 << g.order, 2):
            try:
                systems.append(enumerate_cosets(g, mask))
            except (NotASubgroupError, NotNormalError):
                pass
        return systems

    isos = []
    for h in normal(gx):
        for k in normal(gy):
            if h.count != k.count:
                continue
            for rest in permutations(k.cosets[1:]):
                image = CosetSystem(k.subgroup, (k.subgroup, *rest))
                if homomorphism_defect(gx, h, gy, image) is None:
                    isos.append((h, image))
    return isos


def small_frame_census() -> Iterator[Frame]:
    """Every one-block frame of three groups of order at most 4.

    The ids 0, 1, 2 take every ordered choice of census_groups(), and each
    pair x < y every quotient isomorphism between its groups
    (_quotient_isos), so frames that fail conditions (iii) and (iv) come
    with the ones that pass.
    """
    catalogue = census_groups()
    pairs = [("0", "1"), ("0", "2"), ("1", "2")]
    for chosen in product(catalogue.values(), repeat=3):
        groups = dict(zip("012", chosen))
        choices = [_quotient_isos(groups[x], groups[y]) for x, y in pairs]
        for records in product(*choices):
            isos = {(x, y): IsoRecord(x, y, h, k) for (x, y), (h, k) in zip(pairs, records)}
            yield Frame(groups, [["0", "1", "2"]], isos)


Verdict = tuple[bool, bool]


def triple_verdicts(
    frame: Frame,
) -> Iterator[tuple[tuple[str, str, str], Verdict, Verdict, Optional[Verdict]]]:
    """Each ordered triple, repeated indices included, with three verdict
    pairs.

    The first two pairs are the equations of condition (iii),
    M0 = H_xy*H_xz and N0 = K_xz*K_yz, each decided off subgroup orders
    (frames._is_product) and against the product itself
    (frames._times_normal).  The third, only
    where H_xz lies inside M0 (else None), is condition (iv): whether the
    generators of G_x agree (frames._agrees_on_generators), and whether
    phi_xz's direct images, gathered coset by coset, equal the N0-cosets.
    """
    for block in frame.blocks:
        for x, y, z in product(block, repeat=3):
            rxy, ryx = frame.records[(x, y)], frame.records[(y, x)]
            rxz, ryz = frame.records[(x, z)], frame.records[(y, z)]
            p = _p0(frame, x, y, z)
            m, n = _coarse_images(ryx, p), _coarse_images(ryz, p)
            h_xz, k_xz = rxz.h.subgroup, rxz.k.subgroup
            iii_m = _is_product(m[0], rxy.h.subgroup, h_xz), m[0] == _times_normal(h_xz, rxy.h)
            iii_n = _is_product(n[0], ryz.k.subgroup, k_xz), n[0] == _times_normal(k_xz, ryz.k)
            if not is_subset(h_xz, m[0]):
                yield (x, y, z), iii_m, iii_n, None
                continue
            direct = [0] * p.count
            for j, kc in zip(_slots(ryx, rxz, p), rxz.k.cosets):
                direct[j] |= kc
            iv = _agrees_on_generators(frame.groups[x], ryx, rxz, p, n), tuple(direct) == n
            yield (x, y, z), iii_m, iii_n, iv


def iv_verdicts(frame: Frame) -> Iterator[Verdict]:
    """The condition (iv) pairs of triple_verdicts, at each ordered triple
    where H_xz lies inside M0."""
    return (iv for _, _, _, iv in triple_verdicts(frame) if iv is not None)
