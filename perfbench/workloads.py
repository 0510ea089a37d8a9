"""The four workloads.  Each is a single-threaded closed loop with one caller.

A workload is built from the seed during set-up (frame texts, samples and
queries), computes its expected answers with the reference checker in
``prepare``, and then runs whole rounds of the same operations.  A round
times three things, always outside the answer checks:

* ``load``: frame text -> parse_frame -> check_frame_reduced ->
  GroupRelationAlgebra, summed over the workload's frames;
* ``command``: the user command the workload is about, computed in process;
* ``ops``: one latency per single operation of the workload.

Every time is reported at the speed of the reference machine of
``speed.py``.
"""

from __future__ import annotations

import io
import random
import sys
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from math import comb
from pathlib import Path
from time import perf_counter as clock
from types import SimpleNamespace
from typing import Callable, Optional

from inputs import (
    CyclicSpec,
    PowerSpec,
    canonical_cosets,
    cyclic_table,
    dihedral_table,
    power,
    rotations,
    spec_text,
    symmetric4_table,
    twoblock,
    uniform_cyclic,
    v4_in_s4,
    z6z9,
    z48_corpus,
)
from reference import Reference, atom_diff, pairs_compose, pairs_converse
from speed import Speedometer

SWEEPS = (
    "partition",
    "converse-oracle",
    "composition-oracle",
    "involution",
    "associativity",
    "identity-laws",
    "boolean-laws",
    "fast-paths",
    "image-equations",
)


class RoundResult:
    """The timed intervals of one round, as (start, end) pairs of
    ``perf_counter`` readings; ``finish`` turns them into times on the
    reference machine of ``speed.py``."""

    def __init__(self) -> None:
        self.loads: list[tuple[float, float]] = []
        self.command: list[tuple[float, float]] = []
        self.ops: list[tuple[float, float]] = []

    def finish(self, speed: Speedometer) -> None:
        scale = speed.scale
        self.loads_s = [scale(*iv) for iv in self.loads]
        self.command_s = sum(scale(*iv) for iv in self.command)
        self.ops_ms = [scale(*iv) * 1000 for iv in self.ops]
        self.wall_s = sum(end - start for start, end in self.loads + self.command + self.ops)

    @property
    def measured_s(self) -> float:
        return sum(self.loads_s) + self.command_s + sum(self.ops_ms) / 1000


class Tally:
    """Operations attempted, failed (exception or wrong answer) and wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self._shown = 0

    def check(self, what: str, result, verdict: Callable[[object], Optional[str]]) -> None:
        """Count one operation; ``verdict(result)`` names a wrong answer."""
        self.attempted += 1
        if isinstance(result, Exception):
            problem = "".join(traceback.format_exception_only(type(result), result)).strip()
        else:
            problem = verdict(result)
            if problem is None:
                return
            self.wrong += 1
        self.failed += 1
        if self._shown < 5:
            self._shown += 1
            print(f"FAILED {what}: {problem}", file=sys.stderr)

    def fail_unreached(self, n: int) -> None:
        """Count ``n`` operations that never ran, after an earlier one failed."""
        self.attempted += n
        self.failed += n


def _bits(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _equal(expected) -> Callable[[object], Optional[str]]:
    return lambda got: None if got == expected else f"expected {expected!r}, got {got!r}"


def _count_triples(full: bool):
    def count(result, args):
        blocks = args[0].blocks
        n = sum(len(b) ** 3 if full else comb(len(b), 3) for b in blocks)
        return (("frames.triples_checked", n),)

    return count


def _count_compose(result, args):
    return (("algebra.compose_calls", 1), ("algebra.result_atoms", len(result)))


def _count_relations(result, args):
    return (("relations.calls", 1),)


class Workload:
    """Shared set-up and the load phase common to all four workloads."""

    name = ""
    # Load passes per round: workloads whose frames load in tens of
    # milliseconds repeat the load to get more than a handful of samples.
    load_passes = 1

    def __init__(self, seed: int, mods: SimpleNamespace, workdir: Path):
        self.mods = mods
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        self.specs: list[CyclicSpec | PowerSpec] = []
        self.passes: list[bool] = []

    def add_frame(self, spec: CyclicSpec | PowerSpec, passes: bool = True) -> None:
        self.specs.append(spec)
        self.passes.append(passes)

    def setup_texts(self) -> None:
        self.texts = [spec_text(s) for s in self.specs]
        self.refs = [Reference(s) if ok else None for s, ok in zip(self.specs, self.passes)]

    def load_ops(self) -> int:
        return self.load_passes * sum(3 if ok else 2 for ok in self.passes)

    def load(self, tr, tally: Tally, res: RoundResult) -> list:
        """Parse, reduced-check and build every frame, ``load_passes`` times;
        returns the last pass's (frame, algebra) per frame, with None where a
        step failed or does not apply."""
        for _ in range(self.load_passes):
            out = self._load_pass(tr, tally, res)
        return out

    def _load_pass(self, tr, tally: Tally, res: RoundResult) -> list:
        g = self.mods.g
        parse = tr.wrap("fileformat.parse", g.parse_frame)
        reduced = tr.wrap("frames.check_reduced", g.check_frame_reduced, _count_triples(False))
        build = tr.wrap("algebra.build", g.GroupRelationAlgebra)
        steps: list[list] = []
        t0 = clock()
        with tr.phase("bench.load"):
            for text in self.texts:
                done: list = []
                steps.append(done)
                try:
                    frame = parse(text)
                    done.append(frame)
                    report = reduced(frame)
                    done.append(report)
                    if report.ok:
                        done.append(build(frame))
                except Exception as exc:
                    done.append(exc)
        res.loads.append((t0, clock()))
        out = []
        for spec, ok, ref, done in zip(self.specs, self.passes, self.refs, steps):
            checks = [
                ("parse", lambda f: None),
                ("reduced check", lambda r, ok=ok: None if r.ok == ok else f"verdict ok={r.ok}"),
            ]
            if ok:
                want = ref.atoms()
                checks.append(("build", lambda a, want=want: _atoms_problem(a, want)))
            for i, (what, verdict) in enumerate(checks):
                if i < len(done):
                    tally.check(f"{spec.name} {what}", done[i], verdict)
            tally.fail_unreached(len(checks) - min(len(done), len(checks)))
            frame = done[0] if done and not isinstance(done[0], Exception) else None
            alg = done[2] if len(done) > 2 and not isinstance(done[2], Exception) else None
            out.append((frame, alg))
        return out


def _atoms_problem(alg, want: list) -> Optional[str]:
    got = [tuple(a) for a in alg.atoms()]
    return None if got == want else f"{len(got)} atoms, expected {len(want)}"


def _require(alg):
    if alg is None:
        raise RuntimeError("frame did not load; the rest of the round cannot run")
    return alg


# -- table-cyclic ----------------------------------------------------------

WARM_OPS = 1200
WARM_SIZE = 24


class TableCyclic(Workload):
    """Z60^4 with kappa 12: the cold composition table, then warm element
    compositions on the filled cache."""

    name = "table-cyclic"
    load_passes = 10

    def __init__(self, seed, mods, workdir):
        super().__init__(seed, mods, workdir)
        self.add_frame(uniform_cyclic("z60x4", 60, 4, 12))
        self.setup_texts()
        atoms = self.refs[0].atoms()
        by_pair: dict[tuple, list] = {}
        for a in atoms:
            by_pair.setdefault(a[:2], []).append(a)
        # How many of an element's atoms lie on each pair (x,y) sets what
        # composing it costs, so that is drawn the same for every seed; the
        # seed picks the atoms within each pair.
        shapes = random.Random(f"{self.name}:shapes")

        def element() -> list:
            counts = Counter(a[:2] for a in shapes.sample(atoms, WARM_SIZE))
            return [a for pair, n in counts.items() for a in self.rng.sample(by_pair[pair], n)]

        self.warm = [(element(), element()) for _ in range(WARM_OPS)]

    def prepare(self) -> None:
        ref = self.refs[0]
        self.warm_expected = [ref.compose_elements(a, b) for a, b in self.warm]
        n = len(ref.atoms())
        self.ops_per_round = self.load_ops() + n * n + n + WARM_OPS

    def round(self, tr, tally: Tally) -> RoundResult:
        res = RoundResult()
        alg = _require(self.load(tr, tally, res)[0][1])
        ref = self.refs[0]
        atoms = alg.atoms()
        compose = tr.wrap("algebra.compose_cold", alg.compose_atoms, _count_compose)
        converse = tr.wrap("algebra.converse", alg.converse_atom)
        for a in atoms:
            row = []
            t0 = clock()
            with tr.phase("bench.table"):
                for b in atoms:
                    try:
                        row.append(compose(a, b))
                    except Exception as exc:
                        row.append(exc)
                try:
                    conv = converse(a)
                except Exception as exc:
                    conv = exc
            res.command.append((t0, clock()))
            for b, got in zip(atoms, row):
                want = ref.compose(a, b)
                if isinstance(got, Exception) or got.atoms != want:
                    tally.check(f"{a};{b}", got, lambda e, w=want: atom_diff(w, e.atoms))
                else:
                    tally.attempted += 1
            tally.check(f"conv {a}", conv, lambda c, w=ref.converse(a): _equal(w)(tuple(c)))

        index = {tuple(a): a for a in atoms}
        elements = [
            (alg.element(index[t] for t in left), alg.element(index[t] for t in right))
            for left, right in self.warm
        ]
        compose_warm = tr.wrap("algebra.compose_warm", alg.compose, _count_compose)
        results = []
        with tr.phase("bench.ops"):
            for e1, e2 in elements:
                t0 = clock()
                try:
                    got = compose_warm(e1, e2)
                except Exception as exc:
                    got = exc
                res.ops.append((t0, clock()))
                results.append(got)
        for got, want in zip(results, self.warm_expected):
            tally.check("warm compose", got, lambda e, w=want: atom_diff(w, e.atoms))
        return res


# -- verify-mixed ----------------------------------------------------------

ORACLE_PER_TRIPLE = 24
ORACLE_PER_PAIR = 24


class VerifyMixed(Workload):
    """The nine verification sweeps on Z24^3 (kappa 12) and on S4^3 glued
    along V4, then a direct oracle phase on materialized atoms."""

    name = "verify-mixed"
    load_passes = 10

    def __init__(self, seed, mods, workdir):
        super().__init__(seed, mods, workdir)
        self.add_frame(uniform_cyclic("z24x3", 24, 3, 12))
        self.add_frame(power("s4x3", symmetric4_table(), v4_in_s4(), 3))
        self.setup_texts()
        rng = self.rng
        self.samples = []
        for ref in self.refs:
            ids = ref.ids
            comps = [
                ((x, y, rng.randrange(ref.kappa(x, y))), (y, z, rng.randrange(ref.kappa(y, z))))
                for x in ids
                for y in ids
                for z in ids
                for _ in range(ORACLE_PER_TRIPLE)
            ]
            convs = [
                (x, y, rng.randrange(ref.kappa(x, y)))
                for x in ids
                for y in ids
                for _ in range(ORACLE_PER_PAIR)
            ]
            self.samples.append((comps, convs))

    def prepare(self) -> None:
        self.expected = []
        ops = self.load_ops() + len(SWEEPS) * len(self.specs)
        for ref, (comps, convs) in zip(self.refs, self.samples):
            pairs = {a: ref.atom_pairs(a) for a in ref.atoms()}
            rows = {a: ref.rows(p) for a, p in pairs.items()}
            comp_rows = [ref.rows(pairs_compose(pairs[a], pairs[b])) for a, b in comps]
            conv_rows = [ref.rows(pairs_converse(pairs[a])) for a in convs]
            self.expected.append((rows, comp_rows, conv_rows))
            ops += len(rows) + len(comps) + len(convs)
        self.ops_per_round = ops

    def _verify(self, tr, alg):
        verification = self.mods.verification
        if not tr.enabled:
            return verification.verify_algebra(alg)
        return [
            (name, tr.wrap(f"verification.{name}", sweep)(alg))
            for name, sweep in verification.VERIFY_SWEEPS
        ]

    def round(self, tr, tally: Tally) -> RoundResult:
        res = RoundResult()
        g = self.mods.g
        loaded = self.load(tr, tally, res)
        for spec, (_, alg) in zip(self.specs, loaded):
            _require(alg)
            t0 = clock()
            with tr.phase("bench.verify"):
                try:
                    outcome = self._verify(tr, alg)
                except Exception as exc:
                    outcome = exc
            res.command.append((t0, clock()))
            if isinstance(outcome, Exception):
                for name in SWEEPS:
                    tally.check(f"{spec.name} {name}", outcome, None)
                continue
            for i, name in enumerate(SWEEPS):
                got = outcome[i] if i < len(outcome) else ("missing", ["sweep not run"])
                tally.check(f"{spec.name} {name}", got, _sweep_verdict(name))

        build = tr.wrap("algebra.build", g.GroupRelationAlgebra)
        rel_compose = tr.wrap("relations.compose", g.rel_compose, _count_relations)
        rel_converse = tr.wrap("relations.converse", g.rel_converse, _count_relations)
        for spec, (frame, _), (comps, convs), (rows, comp_rows, conv_rows) in zip(
            self.specs, loaded, self.samples, self.expected
        ):
            with tr.phase("bench.materialize"):
                fresh = build(frame)
                materialize = tr.wrap("algebra.materialize", fresh.atom_relation)
                rels = {tuple(a): materialize(a) for a in fresh.atoms()}
            for atom, want in rows.items():
                got = rels.get(atom, KeyError(atom))
                tally.check(f"{spec.name} materialize {atom}", got, _rows_verdict(want))
            results = []
            with tr.phase("bench.ops"):
                for a, b in comps:
                    left, right = rels[a], rels[b]
                    t0 = clock()
                    try:
                        got = rel_compose(left, right)
                    except Exception as exc:
                        got = exc
                    res.ops.append((t0, clock()))
                    results.append(got)
                for a in convs:
                    rel = rels[a]
                    t0 = clock()
                    try:
                        got = rel_converse(rel)
                    except Exception as exc:
                        got = exc
                    res.ops.append((t0, clock()))
                    results.append(got)
            for got, want in zip(results, comp_rows + conv_rows):
                tally.check(f"{spec.name} oracle", got, _rows_verdict(want))
        return res


def _sweep_verdict(name: str):
    def verdict(got) -> Optional[str]:
        got_name, failures = got
        if got_name != name:
            return f"sweep {got_name!r} in place of {name!r}"
        return None if not failures else f"{len(failures)} failures, first: {failures[0]}"

    return verdict


def _rows_verdict(want: tuple[int, ...]):
    def verdict(rel) -> Optional[str]:
        if rel.rows == want:
            return None
        bad = next(i for i, (a, b) in enumerate(zip(rel.rows, want)) if a != b)
        return f"row {bad} differs from the reference"

    return verdict


# -- validate-corpus -------------------------------------------------------


class ValidateCorpus(Workload):
    """Parse, reduced check and full check on Z48^12, D60^3 (tables, glued
    along <r^10>), Z120^2 (kappa 120) and two corrupted twins of the Z48
    frame; then direct calls into the groups module."""

    name = "validate-corpus"

    def __init__(self, seed, mods, workdir):
        super().__init__(seed, mods, workdir)
        z48, twisted, stepped = z48_corpus(self.rng)
        self.z48 = z48
        self.add_frame(z48)
        self.add_frame(power("d60x3", dihedral_table(60), rotations(60, 10), 3))
        self.add_frame(uniform_cyclic("z120x2", 120, 2, 120))
        self.add_frame(twisted, passes=False)
        self.add_frame(stepped, passes=False)
        self.setup_texts()

    def prepare(self) -> None:
        g = self.mods.g
        d60 = dihedral_table(60)
        z48 = cyclic_table(48)
        grp_d60 = g.validate_table(d60, "D60")
        grp_z48 = g.make_cyclic(48)
        grp_z120 = g.make_cyclic(120)
        mask = g.mask_of
        ops: list[tuple[str, Callable, tuple, Callable]] = []

        def table_verdict(table):
            return lambda got: None if got.op == table else "table differs"

        def cosets_verdict(table, sub):
            want = [tuple(c) for c in canonical_cosets(table, sub)]
            return lambda got: None if [_bits(c) for c in got.cosets] == want else "cosets differ"

        def quotient_verdict(table, sub):
            cosets = canonical_cosets(table, sub)
            where = {e: i for i, c in enumerate(cosets) for e in c}
            want = tuple(
                tuple(where[table[a[0]][b[0]]] for b in cosets) for a in cosets
            )
            return lambda got: None if got.op == want else "quotient table differs"

        def iso_verdict(ok):
            return lambda got: None if got.ok == ok else f"iso verdict ok={got.ok}"

        ops.append(("groups.validate_table", g.validate_table, (d60, "D60"), table_verdict(d60)))
        ops.append(("groups.validate_table", g.validate_table, (z48, "Z48"), table_verdict(z48)))
        glue = rotations(60, 10)
        ops.append(("groups.cosets", g.is_normal, (grp_d60, mask(glue)), _equal(True)))
        ops.append(("groups.cosets", g.is_normal, (grp_d60, mask((0, 60))), _equal(False)))
        ops.append(("groups.cosets", g.enumerate_cosets, (grp_d60, mask(glue)), cosets_verdict(d60, glue)))
        ops.append(("groups.quotient_iso", g.quotient_group, (grp_d60, mask(glue)), quotient_verdict(d60, glue)))
        ident20 = list(range(20))
        ops.append((
            "groups.quotient_iso", g.check_quotient_iso,
            (grp_d60, mask(glue), grp_d60, mask(glue), ident20), iso_verdict(True),
        ))
        for k in sorted(set(self.z48.kappa.values())):
            sub = tuple(range(0, 48, k))
            m = mask(sub)
            ops.append(("groups.cosets", g.is_normal, (grp_z48, m), _equal(True)))
            ops.append(("groups.cosets", g.enumerate_cosets, (grp_z48, m), cosets_verdict(z48, sub)))
            # Four more unit maps at kappa 48, where the quotient is Z48
            # itself and each check costs tens of ms: the counts put the 90th
            # percentile of the calls inside these, not on the edge of a gap.
            for u in (1, 5, 7, 11, 13, 47) if k == 48 else (1, 47):
                maps = [u * j % k for j in range(k)]
                ops.append((
                    "groups.quotient_iso", g.check_quotient_iso,
                    (grp_z48, m, grp_z48, m, maps), iso_verdict(True),
                ))
            if k >= 4:
                swapped = list(range(k))
                swapped[1], swapped[2] = 2, 1
                ops.append((
                    "groups.quotient_iso", g.check_quotient_iso,
                    (grp_z48, m, grp_z48, m, swapped), iso_verdict(False),
                ))
        ops.append(("groups.quotient_iso", g.quotient_group, (grp_z120, 1), table_verdict(cyclic_table(120))))
        self.group_ops = ops
        self.ops_per_round = self.load_ops() + len(self.specs) + len(ops)

    def round(self, tr, tally: Tally) -> RoundResult:
        res = RoundResult()
        loaded = self.load(tr, tally, res)
        full = tr.wrap("frames.check_full", self.mods.g.check_frame_full, _count_triples(True))
        reports = []
        with tr.phase("bench.validate_full"):
            for frame, _ in loaded:
                t0 = clock()
                try:
                    reports.append(full(_require(frame)))
                except Exception as exc:
                    reports.append(exc)
                res.command.append((t0, clock()))
        for spec, ok, report in zip(self.specs, self.passes, reports):
            tally.check(
                f"{spec.name} full check", report,
                lambda r, ok=ok: None if r.ok == ok else f"verdict ok={r.ok}",
            )

        calls = [(tr.wrap(name, fn), args) for name, fn, args, _ in self.group_ops]
        results = []
        with tr.phase("bench.ops"):
            for fn, args in calls:
                t0 = clock()
                try:
                    got = fn(*args)
                except Exception as exc:
                    got = exc
                res.ops.append((t0, clock()))
                results.append(got)
        for (name, fn, _, verdict), got in zip(self.group_ops, results):
            tally.check(f"{name} {fn.__name__}", got, verdict)
        return res


# -- point-queries ---------------------------------------------------------

# Queries per round and per kind (comp, conv).  The counts put the median
# inside the Z24^3 queries and the 90th percentile inside the D30^3 ones,
# so neither sits on the edge between two frames.
QUERY_MIX = {"z6z9": 2, "twoblock": 2, "z24x3": 4, "d30x3": 2}


class PointQueries(Workload):
    """``groupra op FILE comp|conv ... --check`` run in process through
    ``groupra.cli.main`` on frame files written at set-up."""

    name = "point-queries"

    def __init__(self, seed, mods, workdir):
        super().__init__(seed, mods, workdir)
        self.add_frame(z6z9())
        self.add_frame(twoblock())
        self.add_frame(uniform_cyclic("z24x3", 24, 3, 12))
        self.add_frame(power("d30x3", dihedral_table(30), rotations(30, 5), 3))
        self.setup_texts()
        workdir.mkdir(parents=True, exist_ok=True)
        rng = self.rng
        self.queries = []
        for spec, ref, text in zip(self.specs, self.refs, self.texts):
            path = workdir / f"{spec.name}.frame"
            path.write_text(text, encoding="utf-8")
            ids = ref.ids
            triples = [
                (x, y, z) for x in ids for y in ids for z in ids
                if ref.related(x, y) and ref.related(y, z)
            ]
            for _ in range(QUERY_MIX[spec.name]):
                x, y, z = rng.choice(triples)
                a = (x, y, rng.randrange(ref.kappa(x, y)))
                b = (y, z, rng.randrange(ref.kappa(y, z)))
                argv = ["op", str(path), "comp", x, y, str(a[2]), z, str(b[2]), "--check"]
                self.queries.append(("cli.op_comp", argv, ref, (a, b)))
                x, y, _ = rng.choice(triples)
                a = (x, y, rng.randrange(ref.kappa(x, y)))
                argv = ["op", str(path), "conv", x, y, str(a[2]), "--check"]
                self.queries.append(("cli.op_conv", argv, ref, (a,)))
        rng.shuffle(self.queries)

    def prepare(self) -> None:
        self.expected = []
        for name, _, ref, atoms in self.queries:
            if name == "cli.op_comp":
                found = sorted(ref.compose(*atoms), key=lambda t: t[2])
                line = " ".join(f"(({x},{z}),{c})" for x, z, c in found) or "empty"
            else:
                y, x, c = ref.converse(atoms[0])
                line = f"(({y},{x}),{c})"
            self.expected.append(f"{line}\noracle: MATCH\n")
        self.ops_per_round = self.load_ops() + len(self.queries)

    def round(self, tr, tally: Tally) -> RoundResult:
        res = RoundResult()
        self.load(tr, tally, res)
        main = self.mods.cli.main
        calls = [(tr.wrap(name, main), argv) for name, argv, _, _ in self.queries]
        results = []
        with tr.phase("bench.queries"):
            for fn, argv in calls:
                t_query = clock()
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    t0 = clock()
                    try:
                        code = fn(argv)
                    except Exception as exc:
                        code = exc
                    res.ops.append((t0, clock()))
                results.append((code, out.getvalue(), err.getvalue()))
                res.command.append((t_query, clock()))
        for (name, argv, _, _), want, (code, out, err) in zip(self.queries, self.expected, results):
            got = code if isinstance(code, Exception) else (code, out, err)
            tally.check(" ".join(argv[2:]), got, _query_verdict(want))
        return res


def _query_verdict(want: str):
    def verdict(got) -> Optional[str]:
        code, out, err = got
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        return None if out == want else f"printed {out!r}, expected {want!r}"

    return verdict


WORKLOADS = {w.name: w for w in (TableCyclic, VerifyMixed, ValidateCorpus, PointQueries)}
