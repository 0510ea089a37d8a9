"""Steadiness check: two sets of runs of the same code, compared per metric.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b]

Each run is ``run.py --trace 0`` for ``run_seconds`` from BENCHMARK.json,
with its own seed: the first set uses seeds 1..R and the second R+1..2R
(R = ``--runs``), and the workloads are interleaved within each seed.  For
every workload and end-to-end metric it prints each set's median and spread
(distance between the first and third quartile as a share of the median)
and the change of the second median against the first, and checks them
against the metric's bound in BENCHMARK.json: every spread within the
bound, and the two medians apart by no more than the bound, either way.
``setup_s`` is the one exception to the spread check: its tens of
milliseconds of imports, input generation and file writes spread more from
run to run than the other times, so its spread is printed but only its
medians are held to the bound.
The share of failed operations must be the same in both sets.  Exits 1 if
any check fails.  ``--workloads`` narrows the run to some workloads while
tuning.  Each run's stderr (one JSON line per round) is kept in
``.bench_out/steady/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    log = ROOT / ".bench_out" / "steady" / f"{workload}-s{seed}.err"
    log.parent.mkdir(parents=True, exist_ok=True)
    log.write_text(done.stderr)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set, at least 2")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results: dict[tuple[str, int], list[dict]] = {}
    for s in range(SETS):
        for i in range(args.runs):
            seed = 1 + s * args.runs + i
            for w in workloads:
                t0 = time.monotonic()
                out = run_once(w, seed, spec["run_seconds"])
                results.setdefault((w, s), []).append(out)
                shown = " ".join(f"{k}={v['value']:.5g}" for k, v in out["metrics"].items())
                print(f"set {s + 1} seed {seed} {w} ({time.monotonic() - t0:.0f} s): "
                      f"{out['failed']}/{out['attempted']} failed; {shown}", flush=True)

    ok = True
    summary = {}
    for w in workloads:
        print(f"\n{w}")
        runs = [results[(w, s)] for s in range(SETS)]
        shares = {r["failed"] / r["attempted"] for rs in runs for r in rs}
        correct = all(r["correct"] for rs in runs for r in rs)
        if len(shares) != 1 or not correct:
            ok = False
            print(f"  failed shares {sorted(shares)}, correct {correct}: NOT STEADY")
        for name, bound in bounds.items():
            sets = [[r["metrics"][name]["value"] for r in rs] for rs in runs]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            change = medians[1] / medians[0] - 1
            good = (name == "setup_s" or max(spreads) <= bound) and abs(change) <= bound
            ok = ok and good
            summary[f"{w}/{name}"] = {"medians": medians, "spreads": spreads, "change": change}
            print(
                f"  {name:12s} bound {bound:.2f}  medians "
                + " ".join(f"{m:.5g}" for m in medians)
                + "  spreads " + " ".join(f"{x:.3f}" for x in spreads)
                + f"  change {change:+.3f}  {'ok' if good else 'NOT STEADY'}"
            )
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"steady-{int(time.time())}.json").write_text(json.dumps(summary, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
