#!/usr/bin/env python3
"""Build bench_layers from source if needed, then run one workload.

    python3 bench_layers/run.py --workload W --seed S --seconds T --trace 0|1 \
        [--out FILE] [--chrome-trace FILE]

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under bench_layers/, in Release mode; its output goes
to stderr so that the last line of stdout stays the benchmark's JSON result.
The exit code is the benchmark's, or nonzero when the build fails.
"""
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_JOBS = "4"


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "bench_layers")


def build(out_dir):
    """Configure once, then let the build tool decide what is stale."""
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out_dir, "--target", "bench_layers", "-j", BUILD_JOBS],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running child instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    out_dir = build_dir()
    try:
        build(out_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"bench_layers: build failed: {e}", file=sys.stderr)
        return 1
    binary = os.path.join(out_dir, "bench_layers")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
