"""The steadiness command: two sets of runs of one commit.

    python3 perfbench/steady.py --workloads oltp,restart --out steady.json

Each set runs every named workload ``--runs`` times untraced for
``run_seconds`` (BENCHMARK.json), each run with another seed (set A
takes seeds 1..N, set B seeds N+1..2N).  For every end-to-end metric it
prints each set's median and quartiles (``statistics.quantiles(values,
n=4)``), the spread -- the distance between the quartiles as a share of
the median -- and whether the sets agree: both spreads within the
metric's bound and the two medians apart by no more than the bound,
either way.  The share of failed operations must also be identical.
The summary, with an environment block per run, goes to ``--out`` for
``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import HERE, ROOT, load_spec  # noqa: E402


def one_run(workload: str, seed: int, seconds: int, out_path: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0", "--out", out_path]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    wall = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"(exit {proc.returncode}):\n{proc.stdout[-2000:]}"
                         f"\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    with open(out_path) as handle:
        full = json.load(handle)
    result["env"] = full["env"]
    result["wall_s"] = wall
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    spec = load_spec()
    seconds = spec["run_seconds"]
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    scratch = os.path.join(ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)

    summary = {"run_seconds": seconds, "runs": args.runs, "workloads": {}}
    ok = True
    for workload in names:
        sets = []
        for index in range(2):
            first = 1 + index * args.runs
            runs = []
            for seed in range(first, first + args.runs):
                out_path = os.path.join(scratch, f"steady-{workload}.json")
                run = one_run(workload, seed, seconds, out_path)
                os.remove(out_path)
                runs.append(run)
                print(f"{workload} set {'AB'[index]} seed {seed}: "
                      f"{run['wall_s']:.1f}s wall, attempted "
                      f"{run['attempted']}, failed {run['failed']}",
                      flush=True)
            sets.append(runs)
        entry = {"sets": [], "agree": True}
        shares = {run["failed"] / run["attempted"]
                  for runs in sets for run in runs}
        if len(shares) > 1:
            entry["agree"] = False
            print(f"{workload}: failed share differs between runs {shares}")
        print(f"\n{workload}: metric, then per set median [q1, q3] spread;"
              " bound; verdict")
        per_set = []
        for runs in sets:
            stats = {}
            for name in runs[0]["metrics"]:
                values = [run["metrics"][name]["value"] for run in runs]
                stats[name] = summarize(values)
            per_set.append(stats)
            entry["sets"].append({"metrics": stats,
                                  "envs": [run["env"] for run in runs],
                                  "attempted": [r["attempted"] for r in runs],
                                  "failed": [r["failed"] for r in runs]})
        for name, stat in per_set[0].items():
            bound = metrics[name]["bound"]
            cells, verdict = [], "agree"
            for stats in per_set:
                s = stats[name]
                cells.append(f"{s['median']:.4g} [{s['q1']:.4g}, "
                             f"{s['q3']:.4g}] {s['spread']:.3f}")
                if s["spread"] > bound:
                    verdict = "SPREAD WIDER THAN BOUND"
            drift = worse_by(per_set[0][name]["median"],
                             per_set[1][name]["median"],
                             metrics[name]["better"])
            if abs(drift) > bound:
                side = "WORSE" if drift > 0 else "BETTER"
                verdict = f"SET B {side} BY {abs(drift):.3f}"
            if verdict != "agree":
                entry["agree"] = False
            print(f"  {name:<20} " + "  |  ".join(cells)
                  + f"  ; bound {bound}  ; {verdict}")
        ok = ok and entry["agree"]
        summary["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=1, sort_keys=True)
    print("\nall workloads agree" if ok else "\nsets DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
