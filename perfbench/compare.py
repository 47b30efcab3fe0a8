"""The compare command: diff two result files.

    python3 perfbench/compare.py before.json after.json

Each file is a ``steady.py`` summary (its first set is used) or one
``run.py --out`` result (a set of one run).  For every workload and
end-to-end metric present in both it prints the two medians and the
change, and a verdict against the metric's bound from BENCHMARK.json:

* ``worse`` / ``better`` -- the median moved by more than the bound;
* ``unresolved`` -- either side's spread (quartile distance over the
  median) is wider than the bound, so the medians cannot be trusted
  to the bound, unless every run of the second file beats every run of
  the first (then ``better``) or loses to every one (``worse``);
* ``same`` -- within the bound.

Exit code 1 when anything is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import load_spec  # noqa: E402
from steady import summarize, worse_by  # noqa: E402


def read_results(path: str) -> dict:
    """workload -> metric -> list of values."""
    with open(path) as handle:
        data = json.load(handle)
    if "workloads" in data:
        return {workload: {name: stat["values"] for name, stat
                           in entry["sets"][0]["metrics"].items()}
                for workload, entry in data["workloads"].items()}
    return {data["workload"]: {name: [value] for name, (value, _unit)
                               in data["metrics"].items()}}


def verdict(first, second, better: str, bound: float) -> str:
    spread = max(summarize(values)["spread"] if len(values) > 1 else 0.0
                 for values in (first, second))
    drift = worse_by(statistics.median(first), statistics.median(second),
                     better)
    sign = 1 if better == "higher" else -1
    all_better = min(v * sign for v in second) > max(v * sign for v in first)
    all_worse = max(v * sign for v in second) < min(v * sign for v in first)
    if spread > bound:
        if all_better:
            return "better"
        if all_worse:
            return "worse"
        return "unresolved"
    if drift > bound:
        return "worse"
    if -drift > bound:
        return "better"
    return "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first")
    parser.add_argument("second")
    args = parser.parse_args(argv)
    metrics = {m["name"]: m for m in load_spec()["end_to_end"]}
    first, second = read_results(args.first), read_results(args.second)
    worse = False
    for workload in sorted(set(first) & set(second)):
        print(workload)
        for name in first[workload]:
            # Metrics one file lacks, or no longer in BENCHMARK.json.
            if name not in second[workload] or name not in metrics:
                continue
            spec = metrics[name]
            a, b = first[workload][name], second[workload][name]
            result = verdict(a, b, spec["better"], spec["bound"])
            worse = worse or result == "worse"
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if ma else 0.0
            print(f"  {name:<20} {ma:12.4g} -> {mb:12.4g} {spec['unit']:<7}"
                  f" {change:+7.1%}  bound {spec['bound']:.2f}  {result}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
