#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md in this directory).

Usage, from the root of the repository:

    python3 perfbench/run.py --workload tables|montecarlo|search \
        --seed N --seconds S --trace 0|1

The benchmark is compiled from the library sources into the directory named
by CARGO_TARGET_DIR (default .bench_build) under the repository root; the
first run builds it. The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only when
every design point was correct.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tables", "montecarlo", "search")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, capture):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else sys.stderr,
        start_new_session=True,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {timeout}s: {' '.join(map(str, cmd))}")
    return proc.returncode, out


def build(build_root):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    bdir = build_root / "perfbench"
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not (bdir / "CMakeCache.txt").is_file():
        code, _ = run(["cmake", "-S", HERE, "-B", bdir,
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                      BUILD_TIMEOUT_S, capture=False)
        if code != 0:
            fail("cmake configure failed")
    code, _ = run(["cmake", "--build", bdir, "--target", "perfbench",
                   "-j", jobs], BUILD_TIMEOUT_S, capture=False)
    if code != 0:
        fail("build failed")
    return bdir / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    reference = json.loads((HERE / "reference.json").read_text())
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    exe = build(build_root)

    scratch = build_root / "scratch" / f"{args.workload}-{os.getpid()}"
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    if args.seed == reference["default_seed"]:
        cmd += ["--expect-digest", reference["digests"][args.workload]]
    try:
        code, out = run(cmd, RUN_TIMEOUT_S, capture=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if code not in (0, 1) or not isinstance(result, dict):
        sys.stderr.write(out)
        fail(f"benchmark exited with code {code} and no result")
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
