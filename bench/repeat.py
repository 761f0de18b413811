#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/repeat.py --workloads stream_roundtrip,loss_curve \
        --seeds 1-10 [--trace 0] [--json out.json]

Runs one ``run.py`` process at a time, in the order given.  For every
workload and metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to the metric's
bound from ``BENCHMARK.json``.  When a seed is given more than once
(``--seeds 7,1009,7,1009``), it also prints each seed's median next to
the first seed's.  It exits 1 if any run failed a check, or if any
end-to-end spread or difference between seed medians, ``setup_s``'s
included, exceeds the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: "
                           f"{done.stderr.strip()}")
    res = json.loads(done.stdout.strip().splitlines()[-1])
    res["run_seconds"] = time.perf_counter() - start
    return res


def compare_seeds(results, bounds) -> bool:
    """Print each seed's medians against the first seed's; False if over a bound."""
    seeds = list(dict.fromkeys(r["seed"] for r in results))
    ok = True
    print(f"  {'metric':32} " + " ".join(f"{'seed ' + str(s):>12}" for s in seeds))
    for name in results[0]["metrics"]:
        med = {s: statistics.median(r["metrics"][name]["value"]
                                    for r in results if r["seed"] == s)
               for s in seeds}
        cells = [f"{med[seeds[0]]:12.6g}"]
        flag = ""
        for s in seeds[1:]:
            diff = (med[s] - med[seeds[0]]) / med[seeds[0]] if med[seeds[0]] else 0.0
            cells.append(f"{med[s]:12.6g} ({diff:+.1%})")
            bound = bounds.get(name)
            if bound is not None and abs(diff) > bound:
                flag, ok = "  OVER BOUND", False
        print(f"  {name:32} " + " ".join(cells) + flag)
    return ok


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="also write the per-run results here")
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    report = {}
    ok = True
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            res = run_once(workload, seed, args.seconds, args.trace)
            results.append({"seed": seed, **res})
            if not res["correct"] or res["failed"]:
                ok = False
                print(f"{workload} seed {seed}: {res['failed']} of "
                      f"{res['attempted']} operations failed")
        report[workload] = results
        elapsed = [r["run_seconds"] for r in results]
        print(f"\n{workload}: {len(seeds)} runs, seeds {args.seeds}, "
              f"{statistics.median(elapsed):.1f} s (max {max(elapsed):.1f} s) "
              f"per run")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (med, med, med))
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound:
                flag, ok = "  OVER BOUND", False
            elif bound is not None and spread > bound / 3:
                flag = "  over a third of bound"
            print(f"  {name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.2%} {'' if bound is None else bound:>6}{flag}")
        if len(set(seeds)) < len(seeds):
            ok = compare_seeds(results, bounds) and ok
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
