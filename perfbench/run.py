#!/usr/bin/env python3
"""Builds and runs the Cobra end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload broadcast|archive|live|mil \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a Cobra source tree. The benchmark is a CMake package of
its own (perfbench/CMakeLists.txt) that compiles the repository's libraries
from src/ into .bench_build/perfbench; a build is redone only when a source
file is newer than the binary. The workload runs in its own process.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1 (a layer the workload does not
run reports 0). The line before it stamps the run: git sha or source digest,
compiler, build type, nproc and seed.
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
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def source_files():
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt")):
                    yield os.path.join(dirpath, name)


def needs_build(binary):
    if not os.path.exists(binary):
        return True
    built = os.path.getmtime(binary)
    return any(os.path.getmtime(path) > built for path in source_files())


def build(target):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no Cobra sources under %s/src; run from a source tree" % ROOT)
        sys.exit(1)
    binary = os.path.join(BUILD, target)
    if not needs_build(binary):
        return binary
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(os.cpu_count() or 2)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    run_build_step(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    if not os.path.exists(binary):
        log("build produced no %s" % target)
        sys.exit(1)
    os.utime(binary)
    return binary


def run_build_step(cmd):
    log("building: " + " ".join(cmd))
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("build timed out")
        sys.exit(1)
    if done.returncode != 0:
        log("build failed")
        sys.exit(1)


def stamp(seed):
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    digest = hashlib.sha256()
    for path in source_files():
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    compiler = "unknown"
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
                    try:
                        compiler = subprocess.run(
                            [path, "--version"], capture_output=True,
                            text=True, timeout=10).stdout.splitlines()[0]
                    except (OSError, IndexError, subprocess.TimeoutExpired):
                        compiler = path
    return {"git_sha": sha, "source_sha256": digest.hexdigest()[:16],
            "compiler": compiler, "build_type": BUILD_TYPE,
            "nproc": os.cpu_count(), "seed": seed}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the checks' own tests")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        sys.exit(subprocess.run([binary], timeout=RUN_TIMEOUT_S).returncode)
    names = [w["name"] for w in spec()["workloads"]]
    if args.workload not in names:
        parser.error("--workload must be one of " + ", ".join(names))

    binary = build("cobra_perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("workload %s did not finish in %d s" % (args.workload,
                                                    RUN_TIMEOUT_S))
        sys.exit(1)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log("workload %s exited with %d" % (args.workload, done.returncode))
        sys.exit(1)
    result = json.loads(lines[-1])

    wanted = spec()["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                log("workload did not report %s" % m["name"])
                sys.exit(1)
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            log("unit of %s is %s, expected %s" % (m["name"], got["unit"],
                                                   m["unit"]))
            sys.exit(1)
        metrics[m["name"]] = got
    extra = sorted(set(result["metrics"]) - set(metrics))
    if extra:
        log("not in BENCHMARK.json, dropped: " + ", ".join(extra))
    print("stamp " + json.dumps(stamp(args.seed), sort_keys=True))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
