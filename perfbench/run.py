"""Run one benchmark workload against the groupra sources of this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up imports ``groupra`` from ``src/`` and writes the workload's inputs
from the seed; it is repeated and its median reported as ``setup_s``.  The
run then measures whole rounds until S seconds have passed and prints, as
the last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones.  With ``--trace 1`` every other round is traced
and the metrics are the per-module ones, from the traced rounds; the spans
are written to ``.bench_out/`` when the run ends.  Every time is scaled to
the speed of the reference machine of ``speed.py``, by probes taken in step
with the work; the wall time of each round is on standard error.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter as clock
from types import SimpleNamespace

from speed import Speedometer
from tracing import NULL, Tracer, median_or_zero
from workloads import SWEEPS, WORKLOADS, Tally

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7

END_TO_END = {
    "setup_s": "s",
    "load_s": "s",
    "command_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Span name -> unit.  Times are self times summed per round (median over the
# traced rounds); the cli entries are per call.
SPAN_METRICS = {
    "fileformat.parse": "s",
    "groups.validate_table": "s",
    "groups.cosets": "s",
    "groups.quotient_iso": "s",
    "frames.check_reduced": "s",
    "frames.check_full": "s",
    "algebra.build": "s",
    "algebra.compose_cold": "s",
    "algebra.converse": "s",
    "algebra.compose_warm": "s",
    "algebra.materialize": "s",
    "relations.compose": "s",
    "relations.converse": "s",
    **{f"verification.{name}": "s" for name in SWEEPS},
    "cli.op_comp": "ms",
    "cli.op_conv": "ms",
}
COUNTS = (
    "frames.triples_checked",
    "algebra.compose_calls",
    "algebra.result_atoms",
    "relations.calls",
)
MODULES = ("fileformat", "groups", "frames", "algebra", "relations", "verification", "cli", "bench")


def import_groupra() -> SimpleNamespace:
    """A fresh import of groupra and the two submodules the workloads use."""
    for name in [m for m in sys.modules if m == "groupra" or m.startswith("groupra.")]:
        del sys.modules[name]
    g = importlib.import_module("groupra")
    if not Path(g.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"groupra was imported from {g.__file__}, not from {SRC}")
    return SimpleNamespace(
        g=g,
        cli=importlib.import_module("groupra.cli"),
        verification=importlib.import_module("groupra.verification"),
    )


def end_to_end(setups: list[float], rounds: list) -> dict[str, float]:
    ops = [ms for r in rounds for ms in r.ops_ms]
    return {
        "setup_s": statistics.median(setups),
        "load_s": statistics.median(t for r in rounds for t in r.loads_s),
        "command_s": statistics.median(r.command_s for r in rounds),
        "op_p50_ms": statistics.median(ops),
        "op_p90_ms": statistics.quantiles(ops, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer: Tracer, scale, traced: list, untraced: list) -> dict[str, tuple[float, str]]:
    selfs = tracer.self_times(scale)
    rounds = sorted(selfs)
    out: dict[str, tuple[float, str]] = {}
    for name, unit in SPAN_METRICS.items():
        if unit == "ms":
            value = median_or_zero(tracer.durations(name, scale)) * 1000
        else:
            value = median_or_zero([selfs[r].get(name, 0.0) for r in rounds])
        out[f"{name}_{unit}"] = (value, unit)
    for name in COUNTS:
        value = median_or_zero([tracer.counts.get((r, name), 0) for r in rounds])
        out[name] = (value, "count")
    for module in MODULES:
        per_round = [
            sum(t for span, t in selfs[r].items() if span.split(".", 1)[0] == module)
            for r in rounds
        ]
        out[f"{module}.self_s"] = (median_or_zero(per_round), "s")
    base = statistics.median(r.measured_s for r in untraced)
    slowed = statistics.median(r.measured_s for r in traced)
    out["trace.overhead_pct"] = (100 * (slowed - base) / base, "%")
    spans = tracer.spans_per_round()
    out["trace.spans"] = (median_or_zero([spans[r] for r in rounds]), "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "groupra" / "__init__.py").is_file():
        print(f"no groupra sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run_id = f"{args.workload}-s{args.seed}-{os.getpid()}-{time.time_ns()}"
    workdir = ROOT / ".bench_out" / run_id
    try:
        return measure(args, run_id, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, run_id: str, workdir: Path) -> int:
    with Speedometer() as speed:
        setups, total, tracer, rounds = run_rounds(args, run_id, workdir)
    setups_s = [speed.scale(*iv) for iv in setups]
    traced, untraced = [], []
    for index, on, result in rounds:
        result.finish(speed)
        (traced if on else untraced).append(result)
        print(json.dumps({
            "round": index, "traced": on, "wall_s": result.wall_s, "loads_s": result.loads_s,
            "command_s": result.command_s, "ops_ms": result.ops_ms,
        }), file=sys.stderr)

    if not untraced or (tracer and not traced):
        print("no round completed; nothing to report", file=sys.stderr)
        return 1
    if tracer:
        values = per_layer(tracer, speed.scale, traced, untraced)
        tracer.write(ROOT / ".bench_out" / f"trace-{args.workload}-s{args.seed}.tsv.gz")
        for name, (value, unit) in values.items():
            print(f"{name:40s} {value:14.6f} {unit}", file=sys.stderr)
    else:
        values = {k: (v, END_TO_END[k]) for k, v in end_to_end(setups_s, untraced).items()}
    print(json.dumps({
        "correct": total.wrong == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0


def run_rounds(args, run_id: str, workdir: Path):
    """Set up ``SETUP_REPEATS`` times, then run whole rounds for
    ``args.seconds``.  Returns the set-up intervals, the run's tally, its
    tracer (None untraced) and (index, traced, RoundResult) per finished
    round."""
    cls = WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        workload = cls(args.seed, import_groupra(), workdir)
        setups.append((t0, clock()))
    workload.prepare()
    # The reference answers are the benchmark's, not the program's: keep them
    # out of the collector's way, and start every round from a collected heap.
    gc.collect()
    gc.freeze()

    tracer = Tracer(args.workload, run_id) if args.trace else None
    min_rounds = 2 if tracer else 1
    total = Tally()
    rounds = []
    # Each round runs on one CPU, and the speed probes with it; moving to the
    # next allowed CPU every two rounds spreads a run over all of them (and
    # keeps each untraced round on the CPU of the traced one after it).
    cpus = sorted(os.sched_getaffinity(0))
    start = clock()
    index = 0
    while index < min_rounds or clock() - start < args.seconds:
        on = tracer is not None and index % 2 == 1
        if on:
            tracer.round = index
        tally = Tally()
        os.sched_setaffinity(0, {cpus[index // 2 % len(cpus)]})
        gc.collect()
        try:
            result = workload.round(tracer if on else NULL, tally)
        except Exception:
            traceback.print_exc()
            result = None
            tally.fail_unreached(workload.ops_per_round - tally.attempted)
        if tally.attempted != workload.ops_per_round:
            raise RuntimeError(
                f"round attempted {tally.attempted} operations, expected {workload.ops_per_round}"
            )
        for key in ("attempted", "failed", "wrong"):
            setattr(total, key, getattr(total, key) + getattr(tally, key))
        if result is not None:
            rounds.append((index, on, result))
        index += 1
    return setups, total, tracer, rounds


if __name__ == "__main__":
    sys.exit(main())
