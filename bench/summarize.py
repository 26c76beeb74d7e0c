#!/usr/bin/env python3
"""Summarize benchmark result files into one trajectory entry.

    python3 bench/summarize.py bench/_work/results/*.json \
        --label baseline --out bench/trajectory/01-baseline.json

Groups the runs by workload and mode (end-to-end or traced), prints each
metric's median, quartiles and spread (interquartile range over median,
as ``statistics.quantiles(values, n=4)`` gives the quartiles), and
writes them with every run's seed, input and output SHA-256 and metrics.
Count metrics from traced runs of the same seed must repeat exactly;
any that differ are listed under ``count_mismatches``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="+")
    parser.add_argument("--label", default="")
    parser.add_argument("--out")
    args = parser.parse_args()

    runs = []
    for path in args.results:
        with open(path, "r", encoding="utf-8") as fh:
            runs.append(json.load(fh))
    groups = defaultdict(list)
    for run in runs:
        groups[(run["workload"], "traced" if run["trace"] else "end_to_end")].append(run)

    summary = {"label": args.label, "environment": runs[0]["environment"], "workloads": {}}
    for (workload, mode), members in sorted(groups.items()):
        names = members[0]["metrics"].keys()
        stats = {name: {**spread([m["metrics"][name]["value"] for m in members]),
                        "unit": members[0]["metrics"][name]["unit"]} for name in names}
        by_seed = defaultdict(list)
        for m in members:
            by_seed[m["seed"]].append(m)
        mismatches = sorted(
            f"seed {seed}: {name}"
            for seed, same in by_seed.items() for name in same[0].get("counts", {})
            if len({json.dumps(s["counts"].get(name)) for s in same}) > 1
        )
        summary["workloads"].setdefault(workload, {})[mode] = {
            "seconds": sorted({m["seconds"] for m in members}),
            "metrics": stats,
            "all_correct": all(m["correct"] for m in members),
            "count_mismatches": mismatches,
            "loadavg": [m["loadavg_before"][0] for m in members],
            "runs": [{"seed": m["seed"], "input_sha256": m["input_sha256"],
                      "output_sha256": m["output_sha256"],
                      "metrics": {k: v["value"] for k, v in m["metrics"].items()}}
                     for m in members],
        }
        print(f"{workload} {mode}: {len(members)} runs, all correct: "
              f"{all(m['correct'] for m in members)}, count mismatches: {mismatches or 'none'}")
        for name, s in stats.items():
            print(f"  {name:40s} median {s['median']:12.6g} {s['unit']:6s} "
                  f"q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} spread {s['spread']:.3f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
