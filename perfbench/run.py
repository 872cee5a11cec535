#!/usr/bin/env python3
"""Build and run the safeopt end-to-end benchmark (see perfbench/README.md).

Usage, from the root of a safeopt checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (a CMake package that compiles the safeopt libraries from
this checkout, Release) into .bench_build/perfbench, runs one workload and
prints the benchmark's output. The last stdout line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The build output goes to stderr. Without a safeopt source tree next to
perfbench/ the script exits with status 2 and prints no result.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
COUNTERS = os.path.join(ROOT, ".bench_build", "perfbench-counters")
TRACES = os.path.join(ROOT, ".bench_build", "perfbench-traces")
# Headroom under the per-run limit; the binary itself stops after --seconds.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """Identifies the code under test: git HEAD when the checkout is a git
    repository, else a digest of the source files."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "source-sha256:" + digest.hexdigest()[:16]


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))
            and os.path.isfile(os.path.join(ROOT, "tools", "corpus.h"))):
        fail("no safeopt source tree in the working directory "
             "(run from the root of a checkout)", 2)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD, *generator,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if result.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def run_binary(args):
    result = subprocess.run([BINARY, *args], cwd=ROOT, capture_output=True,
                            text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(result.stderr)
    if result.returncode != 0:
        fail(f"perfbench exited with status {result.returncode}")
    return result.stdout.splitlines()


def check_counters(workload, seed, lines):
    """Exact-repeat counters of a traced run must equal those of every
    earlier traced run of the same seed on the same binary."""
    counters = next((json.loads(line)["counters"] for line in lines
                     if line.startswith('{"counters"')), None)
    if counters is None:
        return True
    stat = os.stat(BINARY)
    key = f"{workload}-{seed}-{stat.st_size}-{int(stat.st_mtime)}.json"
    path = os.path.join(COUNTERS, key)
    if os.path.isfile(path):
        with open(path) as handle:
            earlier = json.load(handle)
        if earlier != counters:
            print(f"perfbench: determinism bug: counters {counters} differ "
                  f"from an earlier run of seed {seed}: {earlier}",
                  file=sys.stderr)
            return False
    else:
        os.makedirs(COUNTERS, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(counters, handle)
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)

    build()
    flags = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace),
             "--commit", source_digest()]
    if args.workload == "quantify_large":
        # The plain-BDD reference is ~0.5 s and ~900k nodes: computed in a
        # process of its own so it inflates neither setup_s nor peak_rss_mb.
        reference = json.loads(run_binary(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--reference"])[-1])["reference_probability"]
        flags += ["--reference-probability", reference]
    if args.trace:
        os.makedirs(TRACES, exist_ok=True)
        flags += ["--trace-out", os.path.join(
            TRACES, f"{args.workload}-seed{args.seed}.json")]

    lines = run_binary(flags)
    result = json.loads(lines[-1])
    expected = [m["name"] for m in spec["per_layer" if args.trace
                                        else "end_to_end"]]
    if list(result["metrics"]) != expected:
        fail(f"metric names {list(result['metrics'])} do not match "
             f"BENCHMARK.json {expected}")
    if not check_counters(args.workload, args.seed, lines):
        result["correct"] = False
        lines[-1] = json.dumps(result)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
