#!/usr/bin/env python3
"""Build swpbench from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --seconds S --self-check

swpbench is compiled with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench at the checkout root); build output goes to stderr so
the last line of stdout is the benchmark's JSON result.  Exits non-zero,
without a result, when the sources are missing or the build fails.
"""

import fcntl
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    os.makedirs(bdir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        # Concurrent runs in one checkout build once, one at a time.
        fcntl.flock(lock, fcntl.LOCK_EX)
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", bdir, "--target", "swpbench",
                        "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(bdir, "swpbench")


def commit():
    try:
        # The ceiling keeps git from searching directories above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the sources swpbench is built from (a checkout that
    is not a git repository still gets a provenance key)."""
    h = hashlib.sha256()
    for top in ("include", "src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    try:
        exe = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    args = [exe] + sys.argv[1:] + ["--commit", commit(),
                                   "--source-digest", source_digest()]
    sys.stdout.flush()
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
