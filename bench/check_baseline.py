#!/usr/bin/env python3
"""Compare deterministic simulation counters against bench/baseline.json.

Usage:
    python3 perfbench/run.py --workload fuzz --seed 1 --seconds 3 --trace 1 \\
        > counters.txt
    python3 bench/check_baseline.py bench/baseline.json counters.txt

The second file is the benchmark's stdout; its ``exact_counters`` line holds
Fig 9.2 cycles per cell, and per scheduler x bus the simulated cycles, comb
evaluations, minor words and failed calls, plus the fuzz calls and digests.
Every counter must equal the baseline, except ``minor_words``, which may
rise by at most 10 % (it may fall freely). To accept a deliberate change,
replace bench/baseline.json with the new ``exact_counters`` line.
Exits non-zero on any mismatch. Python standard library only.
"""

import json
import sys

MINOR_WORDS_SLACK = 0.10


def exact_counters(path):
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("{") and "exact_counters" in line:
                return json.loads(line)["exact_counters"]
    sys.exit(f"{path}: no exact_counters line")


def compare(base, new, where, errors):
    if isinstance(base, dict) and isinstance(new, dict):
        if sorted(base) != sorted(new):
            errors.append(f"{where}: keys {sorted(base)} != {sorted(new)}")
            return
        for k in base:
            compare(base[k], new[k], f"{where}.{k}", errors)
    elif isinstance(base, list) and isinstance(new, list):
        if len(base) != len(new):
            errors.append(f"{where}: {len(base)} entries != {len(new)}")
            return
        for i, (b, n) in enumerate(zip(base, new)):
            label = i
            if isinstance(b, dict):
                label = "/".join(
                    str(b[k]) for k in ("impl", "scenario", "sched", "bus", "seed") if k in b
                ) or i
            compare(b, n, f"{where}[{label}]", errors)
    elif where.endswith(".minor_words"):
        limit = base * (1 + MINOR_WORDS_SLACK)
        if new > limit:
            errors.append(f"{where}: {new} > {base} + 10% ({limit:.0f})")
    elif base != new:
        errors.append(f"{where}: {new!r} != baseline {base!r}")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base = exact_counters(sys.argv[1])
    new = exact_counters(sys.argv[2])
    errors = []
    compare(base, new, "exact_counters", errors)
    for e in errors:
        print(e)
    if errors:
        print(f"{len(errors)} counter(s) differ from {sys.argv[1]}")
        sys.exit(1)
    print(f"all counters match {sys.argv[1]}")


if __name__ == "__main__":
    main()
