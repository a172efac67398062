#!/usr/bin/env python3
"""Build and run the host-time benchmark.

Run from the root of a checkout:

    python3 hostbench/run.py --workload kernels|storm|sweep --seed N \
        --seconds S --trace 0|1

The first run configures and builds the benchmark (the repository's
libraries plus the hostbench program, Release) into the directory named
by CARGO_TARGET_DIR, or .bench_build, under the current directory.
Every run then checks the harness arithmetic with harness_test and runs
the workload; the program's last stdout line is the JSON result. Build
output and diagnostics go to stderr. With --trace 1 the Chrome trace of
the traced pass is written to <build dir>/trace_<workload>_<seed>.json.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# Exit within 180 s of the workload's start, build excluded.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def run(cmd, timeout, quiet):
    """Run cmd in its own process group and wait for all of it; kill
    the group on timeout. Quiet runs keep their output unless they
    fail, then echo it to stderr. Returns the exit code (-1 on
    timeout)."""
    out = subprocess.PIPE if quiet else None
    proc = subprocess.Popen(cmd, stdout=out,
                            stderr=subprocess.STDOUT if quiet else None,
                            start_new_session=True)
    try:
        text, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        text, _ = proc.communicate()
        sys.stderr.write("hostbench: timed out after %d s: %s\n"
                         % (timeout, " ".join(cmd)))
        return -1
    if proc.returncode != 0:
        if quiet:
            sys.stderr.write(text.decode(errors="replace"))
        sys.stderr.write("hostbench: failed: %s\n" % " ".join(cmd))
    return proc.returncode


def build(build_dir):
    start = time.monotonic()
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run(cmd, BUILD_TIMEOUT_S, quiet=True) != 0:
            # Leave no half-configured tree behind.
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    remaining = BUILD_TIMEOUT_S - (time.monotonic() - start)
    return run(["cmake", "--build", build_dir, "-j", jobs], remaining,
               quiet=True) == 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["kernels", "storm", "sweep"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in [1, 3600]")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        return 1

    start = time.monotonic()
    if run([os.path.join(build_dir, "harness_test")], 60, quiet=True) != 0:
        return 1
    cmd = [os.path.join(build_dir, "hostbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir, "trace_%s_%d.json" % (args.workload, args.seed))]
    remaining = RUN_TIMEOUT_S - (time.monotonic() - start)
    return 1 if run(cmd, remaining, quiet=False) != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
