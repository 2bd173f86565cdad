#!/usr/bin/env python3
"""Build and run the jsmt benchmark from the root of a checkout.

    python3 jsmtbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Configures a Release build of jsmtbench/ (which builds the jsmt
libraries from the checkout's sources) in .bench_build, or in
$CARGO_TARGET_DIR when that is set, then runs the jsmt_bench driver
and passes its output and exit status through. The driver's last
line of standard output is the JSON result. Build output goes to
standard error. See jsmtbench/README.md for workloads and metrics.
"""

import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# The driver must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path)


def jobs():
    return str(max(1, min(4, os.cpu_count() or 1)))


def run_group(command, timeout, **kwargs):
    """Run `command` in its own process group and return its exit
    code. On timeout, or when this script is told to stop, kill the
    whole group and wait for it; a timeout returns None."""
    process = subprocess.Popen(command, start_new_session=True,
                               **kwargs)

    def stop(signum, _frame):
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        sys.exit(128 + signum)

    previous = {sig: signal.signal(sig, stop)
                for sig in (signal.SIGTERM, signal.SIGINT)}
    try:
        return process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        return None
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)


def build():
    """Configure (once) and build the driver; return its path."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "jsmt_bench",
                  "-j", jobs()])
    for step in steps:
        if run_group(step, BUILD_TIMEOUT_S, stdout=sys.stderr,
                     stderr=sys.stderr) != 0:
            raise SystemExit("run.py: build step failed: " +
                             " ".join(step))
    return os.path.join(out, "jsmt_bench")


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        print("run.py: no jsmt sources beside " + BENCH_DIR,
              file=sys.stderr)
        return 2
    binary = build()
    command = [binary, *argv, "--repo-root", ROOT,
               "--out-dir", os.path.join(build_dir(), "out")]
    code = run_group(command, RUN_TIMEOUT_S)
    if code is None:
        print("run.py: jsmt_bench exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
