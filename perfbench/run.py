#!/usr/bin/env python3
"""Builds the SEED benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload <spec_query|spec_edit|team_checkin>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The engine and the perfbench program are
built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), so the first run builds and later runs reuse the
build. The program prints the run environment, then the result as the
last line of standard output.
Traced runs keep their spans in <build dir>/spans/. The exit code is the
program's: 0 only when every correctness oracle held.
"""

import argparse
import glob
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("spec_query", "spec_edit", "team_checkin")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def child_env():
    """The environment for child processes: temporary files (the
    compiler's included) stay inside the build directory."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures and builds the program; returns its path, or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        try:
            proc = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  env=child_env())
        except OSError as err:
            print("perfbench: cannot run %s: %s" % (step[0], err),
                  file=sys.stderr)
            return None
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            print("perfbench: build step failed: %s" % " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(out, "perfbench")


def run_binary(binary, workload, seed, seconds, trace, fault=None):
    """Runs one workload; returns (exit code, stdout)."""
    work = os.path.join(build_dir(), "work",
                        "%s-%d-%d" % (workload, seed, os.getpid()))
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--work-dir", work]
    if fault:
        args += ["--fault", fault]
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=child_env())
        code, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code, out = 124, ""
    spans = os.path.join(build_dir(), "spans")
    for path in glob.glob(os.path.join(work, "spans-*.csv")):
        os.makedirs(spans, exist_ok=True)
        shutil.move(path, os.path.join(spans, os.path.basename(path)))
    shutil.rmtree(work, ignore_errors=True)
    return code, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    binary = build()
    if binary is None:
        return 1
    code, out = run_binary(binary, args.workload, args.seed, args.seconds,
                           args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
