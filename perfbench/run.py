#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload big_trip --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds `grip-serve` (from the repository's
workspace) and the benchmark package in this directory, release profile,
into $CARGO_TARGET_DIR (default `.bench_build`), then runs the benchmark
with the given arguments. Build output goes to stderr; the benchmark's last
stdout line is its JSON result. Exits nonzero without a result if either
build fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def capture(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def build(args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit("perfbench: build failed: " + " ".join(cmd))


def code_id(git_rev, binaries):
    """Identify the code under test: its git rev, plus the built binaries'
    contents (uncommitted edits share a rev)."""
    h = hashlib.sha256(git_rev.encode())
    for path in binaries:
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()[:16]


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(os.path.join(ROOT, target))
    os.environ["CARGO_TARGET_DIR"] = target
    build(["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "grip-service", "--bin", "grip-serve"])
    build(["--manifest-path", os.path.join(HERE, "Cargo.toml")])
    release = os.path.join(target, "release")
    bench, serve = (os.path.join(release, b) for b in ("grip-perfbench", "grip-serve"))
    git_rev = capture(["git", "rev-parse", "HEAD"])
    # Deterministic outputs must repeat between runs of the same code only,
    # so their record is keyed by it.
    state = os.path.join(target, "perfbench-state", code_id(git_rev, [bench, serve]))
    cmd = [
        bench,
        *sys.argv[1:],
        "--serve-bin", serve,
        "--state-dir", state,
        "--git-rev", git_rev,
        "--rustc", capture(["rustc", "--version"]),
    ]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
