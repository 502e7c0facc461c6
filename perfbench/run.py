#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

One workload, as BENCHMARK.json's command runs it (from the repository root):

    python3 perfbench/run.py --workload sweep-fig1 --seed 1 --seconds 30 --trace 0

Every workload, untraced and then traced, with the tracing overhead:

    python3 perfbench/run.py --all [--seed 1] [--seconds 30]

The program is built from the sources in this checkout (Release) into
$CARGO_TARGET_DIR, or .bench_build when that is unset. Build output goes to
stderr; the last line of stdout is the result object. Exits nonzero when
the build fails, when the sources are missing, or when a correctness check
fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sweep-fig1", "fabric-fig1-crash", "svc-fig2-avoid"]


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure once, then build the benchmark target; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: the library sources (CMakeLists.txt, src/) are "
                 "not beside perfbench/; run from a full checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def source_id():
    """The git commit when this is a git checkout, else a digest of src/."""
    try:
        top, head = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True).stdout.split()
        if os.path.realpath(top) == os.path.realpath(ROOT):
            return head
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_one(binary, workload, seed, seconds, trace, extra=(), capture=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", os.path.join(build_dir(), "work"),
           "--commit", source_id(), *extra]
    return subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                          text=True)


def parse_output(stdout):
    detail, result = None, None
    lines = stdout.strip().splitlines()
    try:
        for line in lines:
            if line.startswith("detail: "):
                detail = json.loads(line[len("detail: "):])
        if lines:
            result = json.loads(lines[-1])
    except json.JSONDecodeError:
        pass
    return detail, result


def run_all(binary, seed, seconds):
    status = 0
    for workload in WORKLOADS:
        outputs = {}
        for trace in (0, 1):
            proc = run_one(binary, workload, seed, seconds, trace,
                           capture=True)
            detail, result = parse_output(proc.stdout)
            if proc.returncode != 0 or not result or not result["correct"]:
                status = 1
            outputs[trace] = (detail, result)
        untraced, traced = outputs[0], outputs[1]
        print(f"== {workload} (seed {seed}, {seconds} s per run)")
        if untraced[1]:
            r = untraced[1]
            rate = r["failed"] / max(r["attempted"], 1)
            print(f"  correct        {r['correct']}  "
                  f"({r['failed']} failed of {r['attempted']} attempted)")
            print(f"  error_rate     {rate:.6g}")
            for name, m in untraced[1]["metrics"].items():
                print(f"  {name:<26} {m['value']:.6g} {m['unit']}")
        if traced[1]:
            absent = set(traced[0]["absent_layers"]) if traced[0] else set()
            for name, m in traced[1]["metrics"].items():
                note = "  (not on this path)" if name in absent else ""
                print(f"  {name:<26} {m['value']:.6g} {m['unit']}{note}")
        if untraced[0] and traced[0]:
            base = untraced[0]["seeds_per_s"]
            overhead = (base - traced[0]["seeds_per_s"]) / base * 100.0
            print(f"  tracing overhead {overhead:+.2f}% of seeds_per_s "
                  f"(traced vs untraced run)")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--corrupt", action="store_true",
                        help="damage one artifact or frame; must fail")
    args = parser.parse_args()
    if not args.all and not args.workload:
        parser.error("give --workload or --all")

    try:
        binary = build()
    except subprocess.CalledProcessError as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(binary, args.seed, args.seconds)
    extra = [flag for flag, on in (("--smoke", args.smoke),
                                   ("--corrupt", args.corrupt)) if on]
    sys.stdout.flush()
    return run_one(binary, args.workload, args.seed, args.seconds,
                   args.trace, extra).returncode


if __name__ == "__main__":
    sys.exit(main())
