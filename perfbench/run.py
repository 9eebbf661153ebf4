#!/usr/bin/env python3
"""End-to-end tuning-job benchmark: build, self-test, run (see README.md).

    python3 perfbench/run.py --workload tune_default --seed 1 --seconds 10 --trace 0

Builds perfbench/ and the library it drives (Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
arithmetic self-tests, then runs one measurement.  The last line of stdout
is the JSON result; build and test output goes to stderr.  The exit code is
non-zero when the build, a self-test, an answer check or the result's shape
fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tune_validated", "tune_default", "compile_only", "serve_cold")
BUILD_TIMEOUT_S = 880
TEST_TIMEOUT_S = 120


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, timeout):
    """Runs `cmd` with its output on stderr; exits on failure."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    except OSError as error:
        fail("cannot run %s: %s" % (cmd[0], error))
    if done.returncode != 0:
        fail("failed (exit %d): %s" % (done.returncode, " ".join(cmd)))


def build(build_dir):
    if shutil.which("cmake") is None:
        fail("cmake not found")
    # A configure that failed or was cut short leaves no Makefile behind.
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(os.cpu_count() or 1, 8))
    run_quiet(["cmake", "--build", build_dir, "-j", jobs], BUILD_TIMEOUT_S)


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json promises for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as spec_file:
        spec = json.load(spec_file)
    section = spec["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("the last line of output is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("unexpected result keys: %s" % sorted(result))
    expected = expected_metrics(trace)
    if expected is not None:
        got = {name: value["unit"] for name, value in result["metrics"].items()}
        if got != expected:
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
                 "or units differ" % (missing, extra))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--forge-wrong-answer", action="store_true",
                        help="corrupt the first answer before it is checked")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    build(build_dir)
    run_quiet([os.path.join(build_dir, "ledger_test"), "--gtest_brief=1"],
              TEST_TIMEOUT_S)

    scratch = os.path.join(build_dir, "scratch")
    os.makedirs(scratch, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench_e2e"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--scratch", scratch]
    if args.forge_wrong_answer:
        cmd.append("--forge-wrong-answer")
    # Set-up and the timed phase, then with --trace 1 the traced repeat;
    # a job that starts just before the deadline runs to its end.
    run_timeout_s = 3 * args.seconds + 120
    started = time.monotonic()
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        output, _ = child.communicate(timeout=run_timeout_s)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        output = None
    finally:
        # The benchmark removes its scratch directory itself; this covers
        # a crash.
        shutil.rmtree(os.path.join(scratch, "run-%d" % child.pid),
                      ignore_errors=True)
    if output is None:
        fail("timed out after %.0f s" % run_timeout_s)
    lines = output.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    if child.returncode != 0:
        fail("benchmark failed (exit %d) after %.1f s"
             % (child.returncode, time.monotonic() - started))
    result = check_result(lines[-1], args.trace == "1")
    if not result["correct"] or result["failed"] != 0:
        fail("answers failed their checks")
    print(lines[-1])


if __name__ == "__main__":
    main()
