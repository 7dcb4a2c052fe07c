#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload admit-lp --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds the
library and the driver into .bench_build/perfbench (Release); later calls
rebuild only what changed. The driver's last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; this script checks that its
metric names and units are the ones BENCHMARK.json lists, prints each metric
beside its baseline median (flagging a host fingerprint that differs from
the one recorded with perfbench/baseline.json), and passes the line through
as its own last line. Exit code 0 only when every output passed the
correctness gate.

    python3 perfbench/run.py --self-test     # the harness self-tests
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BASELINE = os.path.join(HERE, "baseline.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
# Fingerprint fields that make two hosts' numbers incomparable.
HOST_KEYS = ("nproc", "cpu", "compiler", "build_type")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(target):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no library sources (CMakeLists.txt, src/) next to perfbench/; "
             "run from a full checkout of the repository")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, env=env)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(BUILD, target)


def source_identity():
    """Git commit when the checkout has one, plus a digest of the sources
    the benchmark builds, so a checkout without git history still names
    exactly what was measured."""
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        if result.returncode == 0:
            commit = result.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as handle:
        digest.update(handle.read())
    return "%s src-sha256:%s" % (commit, digest.hexdigest()[:16])


def check_metrics(traced, metrics):
    """The driver must emit exactly the metrics BENCHMARK.json lists for
    this mode, with the same units."""
    with open(SPEC) as handle:
        spec = json.load(handle)
    listed = {m["name"]: m["unit"]
              for m in spec["per_layer" if traced else "end_to_end"]}
    emitted = {name: value["unit"] for name, value in metrics.items()}
    problems = ["%s missing from the driver's output" % name
                for name in sorted(set(listed) - set(emitted))]
    problems += ["%s is not listed in BENCHMARK.json" % name
                 for name in sorted(set(emitted) - set(listed))]
    problems += ["%s has unit %s, BENCHMARK.json says %s"
                 % (name, emitted[name], listed[name])
                 for name in sorted(set(listed) & set(emitted))
                 if emitted[name] != listed[name]]
    if problems:
        fail("driver metrics differ from BENCHMARK.json: "
             + "; ".join(problems))


def baseline_lines(fingerprint, workload, traced, metrics):
    baseline = {}
    if os.path.isfile(BASELINE):
        with open(BASELINE) as handle:
            baseline = json.load(handle)
    recorded = baseline.get("fingerprint", {})
    differs = [k for k in HOST_KEYS if recorded.get(k) != fingerprint.get(k)]
    if not baseline:
        lines = ["baseline: none recorded"]
    elif differs:
        lines = ["WARNING: host fingerprint differs from the baseline's in "
                 + ", ".join("%s (%s vs %s)" % (k, fingerprint.get(k),
                                                recorded.get(k))
                             for k in differs)
                 + ": these numbers are not comparable with it"]
    else:
        lines = ["baseline: same host fingerprint as perfbench/baseline.json"]
    section = baseline.get("per_layer" if traced else "end_to_end", {})
    medians = section.get(workload, {})
    for name, value in metrics.items():
        line = "  %-36s %14.6g %-6s" % (name, value["value"], value["unit"])
        if name in medians:
            line += " baseline %.6g" % medians[name]
        lines.append(line)
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        binary = build("perfbench_selftest")
        sys.exit(subprocess.run([binary]).returncode)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build("perfbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", source_identity()]
    if args.trace:
        command += ["--spans", os.path.join(
            BUILD, "spans-%s-seed%d.json" % (args.workload, args.seed))]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s ran past %d s" % (args.workload, RUN_TIMEOUT_S), 3)

    lines = result.stdout.splitlines()
    if not lines:
        fail("the driver printed nothing (exit %d)" % result.returncode,
             result.returncode or 2)
    try:
        outcome = json.loads(lines[-1])
    except ValueError:
        print("\n".join(lines))
        fail("the driver's last line is not a result (exit %d)"
             % result.returncode, result.returncode or 2)
    check_metrics(args.trace, outcome["metrics"])
    print("\n".join(lines[:-1]))
    fingerprint = {}
    for line in lines:
        if line.startswith("fingerprint: "):
            fingerprint = json.loads(line[len("fingerprint: "):])
    print("\n".join(baseline_lines(fingerprint, args.workload, args.trace,
                                   outcome["metrics"])))
    print(lines[-1])
    sys.stdout.flush()
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
