#!/usr/bin/env python3
"""Build and run the twocs end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve-miss --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first form builds the twocs libraries and the perfbench binary from
source (Release, into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench) and then runs it with the given
arguments; its last stdout line is the JSON result. --selftest builds,
runs the C++ self-tests and then the smoke test (tests/smoke.py).
Build output goes to stderr so stdout carries only the benchmark's report.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configure (once) and build; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no twocs sources next to " + HERE)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return out


def main(argv):
    out = build()
    if argv[:1] == ["--selftest"]:
        rc = subprocess.call([os.path.join(out, "perfbench_selftest")])
        if rc == 0:
            rc = subprocess.call([sys.executable,
                                  os.path.join(HERE, "tests", "smoke.py"),
                                  os.path.join(out, "perfbench")])
        return rc
    exe = os.path.join(out, "perfbench")
    os.execv(exe, [exe] + argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
