#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds perfbench/ (which compiles the
library from src/) into $CARGO_TARGET_DIR or .bench_build, then runs one
measurement of one workload. The last line of standard output is the
result object: {"correct", "attempted", "failed", "metrics"}; build output
goes to standard error. Scratch files (JIT cache, socket, host-compiler
temporaries) live under .bench_run/ and are removed at exit; a traced run
leaves its spans in .bench_run/spans-<workload>-<seed>.json.

Workloads: mfd-small-jit, mfd-large-t4, serve-mix (see perfbench/README.md).
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("mfd-small-jit", "mfd-large-t4", "serve-mix")
# Each of these silently changes what a workload measures.
REFUSED_ENV = ("LCDFG_JIT", "LCDFG_SCHED", "LCDFG_THREADS", "LCDFG_FAULT",
               "LCDFG_TRACE")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def stop(signum, _frame):
    # Unwinds through the handlers below, which kill and reap the child.
    raise SystemExit(128 + signum)


def commit_id(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return os.environ.get("BENCH_COMMIT", "unknown")
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=20)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(root, build_dir):
    """Configures once, then builds the benchmark binary (a no-op when
    nothing changed). All output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                        build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "lcdfg_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()

    refused = [n for n in REFUSED_ENV if n in os.environ]
    if refused:
        fail("refusing to run with " + ", ".join(
            "%s=%s" % (n, os.environ[n]) for n in refused) + " set", 2)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no library sources under %s/src: run from a full checkout" % root)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_dir)
    try:
        build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    run_dir = os.path.join(root, ".bench_run")
    work = os.path.join(run_dir, "w%d" % os.getpid())
    tmp = os.path.join(run_dir, "tmp%d" % os.getpid())
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    cmd = [os.path.join(build_dir, "lcdfg_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--workdir", os.path.relpath(work, root),
           "--chains", os.path.join(root, "examples", "chains"),
           "--commit", commit_id(root)]
    if args.trace == "1":
        cmd += ["--spans", os.path.join(
            run_dir, "spans-%s-%d.json" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd, cwd=root, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s and was killed" % RUN_TIMEOUT_S,
              file=sys.stderr)
        code = 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(tmp, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
