#!/usr/bin/env python3
"""Builds and runs the culevo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. The first run configures and builds
the culevo libraries, the culevod daemon and the perfbench harness (a
Release build under $CARGO_TARGET_DIR, default .bench_build); later runs
only check that the build is current. The harness then measures the
workload and prints, as its last line, one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.

Workloads, the metrics each layer should move, and the reasons for both
are in BENCHMARK.json and perfbench/layers.json.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("fig4_paper", "serve_point", "serve_mixed")
# A measured run must end within 180 s; this leaves room for the build check.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench-cmake"


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no culevo source tree at {ROOT}: nothing to build")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return out / "perfbench"


def provenance():
    """Commit, dirty flag and a digest of everything the build reads."""
    commit, dirty = "none", "unknown"
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if rev.returncode == 0:
            commit = rev.stdout.strip()
            status = subprocess.run(["git", "status", "--porcelain"],
                                    cwd=ROOT, capture_output=True, text=True)
            if status.returncode == 0:
                dirty = "1" if status.stdout.strip() else "0"
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for tree in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / tree).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return commit, dirty, digest.hexdigest()


def stop_group(pgid):
    """Kills whatever is left in the harness's process group (a culevod
    orphaned by a crashed harness) and waits until the group is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true",
                        help="smoke-size inputs (self-test only)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    commit, dirty, digest = provenance()
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace,
               # Relative, so the daemon's socket path stays short.
               "--workdir", os.path.relpath(build_dir().parent / "perfbench-run",
                                            ROOT),
               "--commit", commit, "--dirty", dirty,
               "--source-digest", digest]
    if args.smoke:
        command.append("--smoke")
    sys.stdout.flush()
    # Own process group: on a timeout the harness and the culevod it
    # spawned are killed together.
    harness = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        code = harness.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(harness.pid)
        harness.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    stop_group(harness.pid)
    sys.exit(code)


if __name__ == "__main__":
    main()
