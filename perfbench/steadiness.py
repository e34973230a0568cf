"""Run-to-run spread of the end-to-end metrics.

Usage, from the root of a checkout:

    python3 perfbench/steadiness.py --workloads iter_small closed_form \
        --seeds 10 --seconds 15 [--trace 1] [--out results.json]

Runs the benchmark once per seed (1..N) and workload, one run at a time, and
prints for every metric its median and the distance between the first and
third quartile (statistics.quantiles, n=4) as a share of the median.  With
``--trace 1`` it also reports which per-layer metrics differed between runs
of the same seed, which must not happen for exact counts.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, seconds, trace):
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=180)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / med if med else float("nan")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m.get("bound") for m in json.load(fh)["end_to_end"]}

    results = {}
    for w in args.workloads:
        seeds = range(args.first_seed, args.first_seed + args.seeds)
        runs = []
        for seed in seeds:
            runs.append(run(w, seed, args.seconds, args.trace))
            if not args.trace:
                print(f"  seed {seed} ({runs[-1]['wall_s']:.0f} s): " + " ".join(
                    f"{k}={m['value']:.6g}" for k, m in runs[-1]["metrics"].items()),
                    flush=True)
        results[w] = runs
        print(f"{w}: correct {[r['correct'] for r in runs].count(True)}/{len(runs)}")
        if args.trace:
            # The first seed once more: exact counts must repeat bit for bit.
            again = run(w, args.first_seed, args.seconds, 1)
            first = runs[0]["metrics"]
            differ = [k for k, m in again["metrics"].items()
                      if (m["unit"] == "count" or k.startswith("homproj.branch_share"))
                      and m["value"] != first[k]["value"]]
            print(f"  counts differing on a repeated seed: {differ or 'none'}")
            continue
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med, sp = spread(values)
            bound = bounds.get(name)
            flag = "" if bound is None or sp <= bound / 3 else "  <-- above bound/3"
            print(f"  {name:<16} median {med:<12.6g} spread {sp:.4f} "
                  f"(bound {bound}){flag}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1)


if __name__ == "__main__":
    main()
