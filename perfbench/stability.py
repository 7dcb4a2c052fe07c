#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end metric's
median and spread (interquartile range as a share of the median, from
statistics.quantiles(values, n=4)), checked against the bounds in
BENCHMARK.json. Exits non-zero when a spread exceeds its bound.

    python3 perfbench/stability.py --workloads admit-lp forensics --seeds 10
    python3 perfbench/stability.py --seeds 10 --write-baseline

--write-baseline also makes one traced run per workload (the first seed)
and stores every median, the per-layer values and the host fingerprint in
perfbench/baseline.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(workload, seed, seconds, trace):
    result = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = result.stdout.splitlines()
    if result.returncode != 0 or not lines:
        sys.exit("%s seed %d trace %d failed (exit %d)"
                 % (workload, seed, trace, result.returncode))
    fingerprint = {}
    for line in lines:
        if line.startswith("fingerprint: "):
            fingerprint = json.loads(line[len("fingerprint: "):])
    outcome = json.loads(lines[-1])
    if not outcome["correct"]:
        sys.exit("%s seed %d: outputs failed the gate" % (workload, seed))
    return fingerprint, {k: v["value"] for k, v in outcome["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, ((q3 - q1) / med if med else float("inf"))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names,
                        choices=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()

    worst = 0.0
    end_to_end, per_layer, fingerprint = {}, {}, {}
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            fingerprint, metrics = run(workload, seed, args.seconds, 0)
            runs.append(metrics)
            print("%s seed %d: %s" % (workload, seed, json.dumps(metrics)),
                  flush=True)
        end_to_end[workload] = {}
        for name in bounds:
            med, share = spread([r[name] for r in runs])
            end_to_end[workload][name] = med
            worst = max(worst, share / bounds[name])
            print("  %-12s %-16s median %-12.6g spread %.4f of bound %.2f%s"
                  % (workload, name, med, share, bounds[name],
                     "" if share < bounds[name] / 3 else
                     "  ABOVE A THIRD OF THE BOUND"), flush=True)
        if args.write_baseline:
            _, per_layer[workload] = run(workload, args.first_seed,
                                         args.seconds, 1)
    print("largest spread: %.2f of its bound" % worst)
    if args.write_baseline:
        with open(os.path.join(HERE, "baseline.json"), "w") as handle:
            json.dump({"fingerprint": fingerprint,
                       "seeds": [args.first_seed,
                                 args.first_seed + args.seeds - 1],
                       "run_seconds": args.seconds,
                       "end_to_end": end_to_end,
                       "per_layer": per_layer}, handle, indent=1,
                      sort_keys=True)
            handle.write("\n")
    if worst > 1.0:
        sys.exit("a spread exceeds its bound")


if __name__ == "__main__":
    main()
