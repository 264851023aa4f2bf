#!/usr/bin/env python3
"""Builds the perfbench program (Release) and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout.  The first run configures and builds
snug_core and the program under .bench_build/perfbench; later runs only
re-check the build.  Build output goes to stderr, so the program's last
stdout line (one JSON object) is the run's result.  Scratch files live
under .bench_build/work.  The exit code is the program's; a failed build
exits non-zero without printing a result.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    """Configures (once) and builds the program; returns its exit code."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        rc = subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return rc
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return subprocess.call(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)


def commit():
    """The checkout's commit when it is a git repository, else 'unknown'."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    rc = build()
    if rc != 0:
        print(f"perfbench: build failed (exit {rc})", file=sys.stderr)
        return rc if rc > 0 else 1
    env = dict(os.environ, PERFBENCH_COMMIT=commit())
    work = os.path.join(ROOT, ".bench_build", "work")
    return subprocess.call([BINARY, "--work-dir", work] + sys.argv[1:],
                           cwd=ROOT, env=env)


if __name__ == "__main__":
    sys.exit(main())
