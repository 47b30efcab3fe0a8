"""The benchmark command: one run of one workload.

    python3 perfbench/run.py --workload oltp --seed 1 --trace 0

Run from the root of a source checkout; the program is imported from
its ``src`` directory and served by processes this command starts and
stops.  Standard output carries a readable report (end-to-end metrics
with units, attempted/failed operations, the environment block and,
with ``--trace 1``, the layer ledger); its last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics untraced, the per-layer metrics traced).  ``--out``
also writes the full result, environment block included, to a file.
The exit code is 0 only when every answer matched the benchmark's own
model.  ``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json, the
run length the bounds were set on.  See README.md for the workloads, metrics and bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

WORKLOADS = ("oltp", "analytic", "sharded", "restart")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int,
                        default=common.load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result here")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if os.environ.get("PYTHONHASHSEED") != "0":
        # One string-hash seed for this process and every process it
        # starts: dict and set layouts then repeat from run to run.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    # A terminated run still stops its server processes (``finally``).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    common.use_source_tree()
    common.pin_to_one_cpu()
    common.become_subreaper()

    import ledger
    if args.workload == "restart":
        from restart import restart as workload
    else:
        import workloads
        workload = getattr(workloads, args.workload)
    try:
        result = workload(args.seed, args.seconds, bool(args.trace))
    finally:
        common.reap_children()
    result["trace"] = args.trace
    result["seconds"] = args.seconds

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    print(f"environment {json.dumps(result['env'], sort_keys=True)}")
    print(f"attempted {result['attempted']}  failed {result['failed']}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<22} {value:14.4f} {unit}")
    for name, value in result.get("figures", {}).items():
        print(f"  {name:<22} {value:14.4f}  (figure, not a metric)")
    if args.trace:
        print("-- per-layer metrics --")
        for name, unit in ledger.PER_LAYER.items():
            print(f"  {name:<34} {result['layers'][name]:14.4f} {unit}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)

    if args.trace:
        metrics = {name: (result["layers"][name], unit)
                   for name, unit in ledger.PER_LAYER.items()}
    else:
        metrics = result["metrics"]
    common.print_result(result["correct"], result["attempted"],
                        result["failed"], metrics)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
