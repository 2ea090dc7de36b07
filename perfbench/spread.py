#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload fig92 --seeds 1-10 [--seconds 20]
        [--trace 0]

Runs perfbench/run.py once per seed (from the root of a checkout) and
prints, per metric, the median and the distance between the first and
third quartiles (statistics.quantiles, n=4) as a share of the median, next
to the metric's bound from BENCHMARK.json. Exits non-zero when a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values = {}
    for seed in seeds_of(args.seeds):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", args.trace],
            stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        if out.returncode != 0 or not result or not result["correct"]:
            print("seed %d failed (exit %d)" % (seed, out.returncode))
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
            flush=True)
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2 and med != 0:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / abs(med)
        else:
            spread = float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  <-- above a third of the bound"
        print("%-32s median %-12.6g spread %6.3f  bound %s%s" % (name, med, spread, bound, flag))
    return 0


if __name__ == "__main__":
    sys.exit(main())
