#!/usr/bin/env python3
"""Build and run the scAtteR benchmark.

    python3 arbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `arbench` (a package of its own that
depends on the repository's crates by path) with cargo, clears the
environment knobs that would reshape a run, and runs the workload in a
child process of its own, so its peak RSS is the workload's. The child's
stdout is relayed: one line per metric, a manifest line, and as the last
line the result object `{correct, attempted, failed, metrics}`. Exits
non-zero when the build fails, the run fails, or an output check fails.
"""

import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("arbench", "Cargo.toml")
RUN_TIMEOUT_S = 175

# Knobs the program reads from the environment. A benchmark run measures
# the defaults users get, so none of them reaches the child.
KNOBS = [
    "SCATTER_SHARDS",
    "SCATTER_JOBS",
    "SCATTER_RUN_CACHE",
    "SCATTER_EXP_SECS",
    "SCATTER_OBS_SAMPLE",
    "SCATTER_FLIGHTREC",
]

# What the source digest covers, for checkouts that are not git trees.
SOURCE_DIRS = ["crates", "shims", "arbench"]
SOURCE_FILES = ["Cargo.toml", "Cargo.lock", "BENCHMARK.json"]
SKIP_DIRS = {"target", ".bench_build", ".bench_out", "results", "__pycache__"}


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def git_rev():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            # Look for a repository at the checkout's root only, never in
            # a directory above it.
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (not a git checkout)"


def source_digest():
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, d)):
            dirnames[:] = sorted(n for n in dirnames if n not in SKIP_DIRS)
            paths.extend(os.path.join(dirpath, f) for f in filenames)
    for p in sorted(paths):
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def main():
    env = dict(os.environ)
    found = [f"{k}={env.pop(k)}" for k in KNOBS if k in env]
    if found:
        log(f"cleared environment knobs: {' '.join(found)}")
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        log("build failed")
        return 2

    cmd = [os.path.join(target, "release", "arbench")] + sys.argv[1:]
    cmd += ["--manifest", f"git_rev={git_rev()}"]
    cmd += ["--manifest", f"source_sha256={source_digest()}"]
    cmd += ["--manifest", f"cleared_env={','.join(found) or 'none'}"]
    try:
        child = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    lines = child.stdout.splitlines()
    for line in lines:
        print(line)
    sys.stdout.flush()
    if child.returncode != 0:
        log(f"run exited with {child.returncode}")
        return child.returncode
    if "--probe-geometry" in sys.argv:
        return 0
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        log("the run printed no result line")
        return 4
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
