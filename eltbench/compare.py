#!/usr/bin/env python3
"""Compares two result sets of the ELT-synthesis benchmark.

    python3 eltbench/compare.py OLD NEW

A result set is a directory holding one `<workload>.jsonl` file per
workload, one line per run: the JSON object `eltbench/run.py --trace 0`
prints last. Runs pair up by line number, so record them alternating
between the two sides. For example:

    for seed in $(seq 1 10); do
      for side in old new; do
        (cd checkout-$side && python3 eltbench/run.py --workload all_b6_j2 \\
           --seed $seed --seconds 10 --trace 0 | tail -1) >> results-$side/all_b6_j2.jsonl
      done
    done

For each workload and end-to-end metric of BENCHMARK.json it prints both
sides' median and quartiles, the pairs the new side won, and a verdict:

* improved: the new side won at least 9/10 of the pairs and its median is
  better than the old median by more than the old side's interquartile
  spread;
* worse: the new median is worse than the old one by more than the
  metric's bound (a share of the old median);
* unresolved: neither, but either side's interquartile spread is wider
  than the bound, and not every new run beats every old run;
* unchanged: otherwise.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(result_set, workload):
    path = os.path.join(result_set, f"{workload}.jsonl")
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4)


def verdict(old, new, better, bound):
    """Verdict on one metric; `old`/`new` are the paired runs' values."""
    sign = 1 if better == "higher" else -1
    q_old, q_new = quartiles(old), quartiles(new)
    gain = sign * (q_new[1] - q_old[1])
    pairs = list(zip(old, new))
    won = sum(1 for o, n in pairs if sign * (n - o) > 0)
    if won >= 0.9 * len(pairs) and gain > q_old[2] - q_old[0]:
        return "improved", won
    if -gain > bound * abs(q_old[1]):
        return "worse", won
    spread = max(((q[2] - q[0]) / abs(q[1]) for q in (q_old, q_new) if q[1]), default=0.0)
    all_better = min(sign * n for n in new) > max(sign * o for o in old)
    if spread > bound and not all_better:
        return "unresolved", won
    return "unchanged", won


def compare(old_dir, new_dir, spec):
    """Yields one report row per (workload, metric) present on both sides."""
    for workload in (w["name"] for w in spec["workloads"]):
        old_runs, new_runs = load_runs(old_dir, workload), load_runs(new_dir, workload)
        if not old_runs or not new_runs:
            continue
        failed = (sum(r["failed"] for r in old_runs), sum(r["failed"] for r in new_runs))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            old = [r["metrics"][name]["value"] for r in old_runs]
            new = [r["metrics"][name]["value"] for r in new_runs]
            result, won = verdict(old, new, metric["better"], metric["bound"])
            yield {
                "workload": workload,
                "metric": name,
                "old": quartiles(old),
                "new": quartiles(new),
                "runs": (len(old), len(new)),
                "won": won,
                "pairs": min(len(old), len(new)),
                "failed": failed,
                "verdict": result,
            }


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    print(f"{'workload':<14} {'metric':<12} {'old median [q1, q3] n':<34} "
          f"{'new median [q1, q3] n':<34} {'won':>7}  verdict")
    for row in compare(argv[1], argv[2], spec):
        sides = [
            f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] {n}"
            for q, n in ((row["old"], row["runs"][0]), (row["new"], row["runs"][1]))
        ]
        line = (
            f"{row['workload']:<14} {row['metric']:<12} {sides[0]:<34} {sides[1]:<34} "
            f"{row['won']:>3}/{row['pairs']:<3}  {row['verdict']}"
        )
        if any(row["failed"]):
            line += f"  (failed runs: {row['failed'][0]} old, {row['failed'][1]} new)"
        print(line)


if __name__ == "__main__":
    main(sys.argv)
