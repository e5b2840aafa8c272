#!/usr/bin/env python3
"""Builds and runs the cspdb serving benchmark.

Usage (from the root of a checkout):

  python3 servebench/run.py --workload hot_repeat --seed 1 --seconds 10 --trace 0
  python3 servebench/run.py --self-test

The first form configures and builds servebench/ (which builds the cspdb
library from this checkout) as a Release build under .bench_build/, runs one
workload on a two-node loopback cluster at fixed ports, and passes the
benchmark's output through: one line per metric, then a JSON summary as the
last line. With --trace 1 the per-layer metrics are printed instead of the
end-to-end ones, and the span trace is written under .bench_build/ and
checked with tools/validate_trace.py.

--self-test builds and runs the benchmark's own unit tests and lints its
sources with tools/lint_cspdb.py.

Exit status is 0 only when a result was printed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "servebench")
WORKLOADS = ("hot_repeat", "cold_engine", "mixed_pipelined")
# Fixed ports, no fallback: ring ownership hashes the member addresses, so
# the same ports give the same local/remote split on every run. A port in
# use fails the run.
PORTS = "47811,47812"
TRACE_REQUIRE = "client,replay,net,service,obs"


def log(message):
    sys.stderr.write(f"run.py: {message}\n")


def run_logged(cmd, log_path):
    """Runs cmd with output appended to log_path; True on exit status 0."""
    with open(log_path, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode == 0


def build(target):
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    ok = True
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        ok = run_logged(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            log_path,
        )
    if ok:
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        ok = run_logged(
            ["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs],
            log_path,
        )
    if not ok:
        with open(log_path) as f:
            tail = f.read().splitlines()[-30:]
        log("build failed; last lines of " + log_path + ":")
        sys.stderr.write("\n".join(tail) + "\n")
    return ok


def git_head():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
        )
    except OSError:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def validate_trace(path):
    """Checks the trace with tools/validate_trace.py; True when it passes."""
    tool = os.path.join(ROOT, "tools", "validate_trace.py")
    out = subprocess.run(
        [sys.executable, tool, path, "--require", TRACE_REQUIRE],
        capture_output=True,
        text=True,
    )
    sys.stdout.write("trace_check " + (out.stdout + out.stderr).strip() + "\n")
    return out.returncode == 0


def check_digest(args, lines):
    """Compares the run's workload digest with the one pinned in
    workloads.json when the run used the pinned seed. False when it
    differs: the run measured another workload."""
    with open(os.path.join(HERE, "workloads.json")) as f:
        pinned = json.load(f)
    if args.seed != pinned["seed"]:
        return True
    for line in lines:
        if line.startswith("workload {"):
            digest = json.loads(line[len("workload "):])["digest"]
            want = pinned["digests"][args.workload]
            verdict = "matches" if digest == want else f"CHANGED from {want}"
            print(f"digest_check {digest} {verdict} (workloads.json)")
            return digest == want
    return False


def self_test():
    if not build("servebench_test"):
        return 1
    status = subprocess.run([os.path.join(BUILD_DIR, "servebench_test")]).returncode
    lint = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "lint_cspdb.py"), HERE]
    ).returncode
    return 1 if status or lint else 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build("servebench"):
        return 1
    cmd = [
        os.path.join(BUILD_DIR, "servebench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--ports", PORTS,
        "--git-head", git_head(),
    ]
    trace_path = None
    if args.trace:
        trace_path = os.path.join(
            BUILD_DIR, f"trace-{args.workload}-{args.seed}.json"
        )
        cmd += ["--trace-out", trace_path]
    result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = result.stdout.splitlines()
    if result.returncode != 0 or not lines:
        sys.stderr.write(result.stdout)
        log(f"benchmark exited with status {result.returncode}")
        return 1
    summary = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if not check_digest(args, lines):
        summary["correct"] = False
    if trace_path is not None and not validate_trace(trace_path):
        summary["correct"] = False
    sys.stdout.flush()
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
