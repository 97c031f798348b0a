#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload hot-join --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. The first call configures and builds the
benchmark (Release) into .bench_build/ (or $CARGO_TARGET_DIR); later
calls rebuild incrementally. The last line of standard output is the
result JSON; per-run records and span files land in .bench_build/records/.
--smoke runs every workload at a tiny scale, traced and untraced, and
fails unless every metric named in BENCHMARK.json is emitted.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    out = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, out)


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no library sources (%s) next to perfbench/" % needed)
    cmake_dir = os.path.join(build_dir(), "cmake")
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", cmake_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(cmake_dir, "perfbench")


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run(binary, args):
    """Runs the benchmark binary; returns (exit code, parsed last line)."""
    cmd = [binary] + args + ["--out", os.path.join(build_dir(), "records"),
                             "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s: %s" % (RUN_TIMEOUT_S, " ".join(args)))
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in spec["workloads"]:
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            name = workload["name"]
            code, result = run(binary, ["--workload", name, "--seed", "1",
                                        "--seconds", "2", "--trace", trace,
                                        "--smoke"])
            where = "%s --trace %s" % (name, trace)
            if code != 0 or result is None or not result.get("correct"):
                problems.append("%s: exit %d, result %r" % (where, code, result))
                continue
            metrics = result["metrics"]
            for metric in spec[group]:
                got = metrics.get(metric["name"])
                if got is None:
                    problems.append("%s: missing %s" % (where, metric["name"]))
                elif got["unit"] != metric["unit"]:
                    problems.append("%s: %s unit %s, expected %s" % (
                        where, metric["name"], got["unit"], metric["unit"]))
            print("smoke %s: %d metrics ok" % (where, len(metrics)),
                  file=sys.stderr)
    for p in problems:
        print("SMOKE FAIL: " + p, file=sys.stderr)
    print(json.dumps({"smoke_ok": not problems, "problems": len(problems)}))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        fail("--workload is required (or --smoke)")

    binary = build()
    if args.smoke:
        return smoke(binary)
    code, result = run(binary, ["--workload", args.workload,
                                "--seed", args.seed,
                                "--seconds", args.seconds,
                                "--trace", args.trace])
    if result is None:
        fail("no result line (exit %d)" % code)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
