#!/usr/bin/env python3
"""DIRE benchmark entry point.

Builds the engine and the bench program from the checkout's sources (an
optimized CMake build under $CARGO_TARGET_DIR, default .bench_build), runs
one workload, and prints the bench's report, a machine fingerprint line,
and, last, the result JSON:

    python3 perfbench/run.py --workload eval-batch --seed 1 --seconds 10 --trace 0

Workloads: eval-batch, serve-read, serve-write (see perfbench/README.md).
`--make-digests` regenerates perfbench/digests.txt, the eval-batch oracle.
Run it from the root of the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("eval-batch", "serve-read", "serve-write")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def jobs():
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:
        n = os.cpu_count() or 1
    return max(1, min(4, n))


def build(bdir, env):
    """Configures and builds; build output goes to stderr. Configuring
    every time is cheap and fails fast when the engine sources are absent."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    subprocess.run(
        ["cmake", "--build", bdir, "-j", str(jobs())],
        check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            dirty = subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain", "--", "src", "tools"],
                capture_output=True, text=True, timeout=10).stdout.strip()
            return out.stdout.strip() + ("-dirty" if dirty else "")
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def fingerprint(bdir):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            m = re.search(r"^model name\s*:\s*(.+)$", f.read(), re.M)
            if m:
                cpu = m.group(1).strip()
    except OSError:
        pass
    compiler = "unknown"
    build_type = "unknown"
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            cache = f.read()
        m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
        if m:
            build_type = m.group(1)
        m = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$", cache, re.M)
        if m:
            out = subprocess.run([m.group(1), "--version"], capture_output=True,
                                 text=True, timeout=10)
            compiler = out.stdout.splitlines()[0] if out.stdout else m.group(1)
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "build_type": build_type,
            "compiler": compiler, "commit": source_id()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-digests", action="store_true")
    args = ap.parse_args()
    if not args.make_digests and args.workload is None:
        ap.error("--workload is required")

    bdir = build_dir()
    # Keep the compiler's and the programs' scratch files inside the tree.
    env = dict(os.environ, TMPDIR=os.path.join(bdir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    try:
        build(bdir, env)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    exe = os.path.join(bdir, "dire_perfbench")
    digests = os.path.join(HERE, "digests.txt")
    if args.make_digests:
        return subprocess.run([exe, "--make-digests", "--work-dir",
                               os.path.join(bdir, "work-digests"),
                               "--digests", digests], env=env).returncode

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(bdir, "work", args.workload),
           "--cli", os.path.join(bdir, "dire_cli"), "--digests", digests]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out.stdout)
        print(f"perfbench: dire_perfbench exited with {out.returncode}", file=sys.stderr)
        return out.returncode or 1
    result = json.loads(lines[-1])
    fp = fingerprint(bdir)
    for line in lines[:-1]:
        print(line)
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, fingerprint=fp)
    results = os.path.join(bdir, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
