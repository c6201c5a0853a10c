#!/usr/bin/env python3
"""Build and run libmframe's benchmark.

    python3 perfbench/run.py --workload <paper_flow|graph_flow|paper_tune>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Run from the root of a checkout. The harness and the library are built from
the checkout's sources into .bench_build/perfbench (Release). One workload
prints the harness's report, whose last line is the JSON result; `all` runs
every workload untraced and then traced, each in its own process, and prints
every end-to-end and per-layer metric. perfbench/README.md has the details.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
HARNESS = BUILD / "mframe_perfbench"
WORKLOADS = ["paper_flow", "graph_flow", "paper_tune"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then bring the Release harness up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}; run from a full checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "mframe_perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.close()
                sys.stderr.write(log_path.read_text()[-4000:])
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")


def revision():
    """The git revision when there is one, else a digest of the sources."""
    try:
        if not (ROOT / ".git").exists():
            raise OSError("not a git checkout")
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if head.returncode == 0:
            dirty = subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain", "--", "src", "perfbench"],
                capture_output=True, text=True, timeout=30).stdout.strip()
            return head.stdout.strip() + ("-dirty" if dirty else "")
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for tree in ("src", "perfbench"):
        for path in sorted((ROOT / tree).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def harness(workload, seed, seconds, trace, rev, capture=False):
    cmd = [str(HARNESS), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--revision", rev]
    if trace:
        cmd += ["--trace-out", str(BUILD / f"trace-{workload}-seed{seed}.json")]
    return subprocess.run(cmd, cwd=ROOT, text=True,
                          stdout=subprocess.PIPE if capture else None)


def run_all(seed, seconds, rev):
    """Every workload, untraced then traced; a table of every metric."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = harness(workload, seed, seconds, trace, rev, capture=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(f"{workload} trace={trace}: harness exited {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            print(f"== {workload}, {'traced' if trace else 'untraced'}: "
                  f"correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for line in lines[:-1]:
                if line.startswith("problem"):
                    print("  " + line)
            for name, metric in result["metrics"].items():
                print(f"  {name:<28} {metric['value']:>18.6f} {metric['unit']}")
            ok = ok and result["correct"] and result["failed"] == 0
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**32:
        fail("--seed takes an integer from 0 to 2^32-1")
    build()
    rev = revision()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, rev)
    return harness(args.workload, args.seed, args.seconds, args.trace, rev).returncode


if __name__ == "__main__":
    sys.exit(main())
