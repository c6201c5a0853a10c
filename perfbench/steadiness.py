#!/usr/bin/env python3
"""Check that two sets of benchmark runs of the same code agree.

    python3 perfbench/steadiness.py

Runs perfbench/run.py ten times per workload of BENCHMARK.json in each of two
sets, one after the other, untraced, each run for BENCHMARK.json's run_seconds
with its own seed (set 1: seeds 1-10, set 2: seeds 1001-1010). For every
end-to-end metric it prints each set's median and quartiles
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median, and how
much worse set 2's median is than set 1's. It exits 1 when a spread or that
shift exceeds the metric's bound. Raw results go to
.bench_build/perfbench/steadiness.json.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SEED_BASES = (1, 1001)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} is not correct:\n{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    results = {w: [[], []] for w in workloads}
    for s, base in enumerate(SEED_BASES):
        for workload in workloads:
            for seed in range(base, base + RUNS):
                results[workload][s].append(run_once(workload, seed, bench["run_seconds"]))
                print(f"set {s + 1} {workload} seed {seed}: {results[workload][s][-1]}",
                      file=sys.stderr, flush=True)
    out = ROOT / ".bench_build" / "perfbench" / "steadiness.json"
    out.write_text(json.dumps(results, indent=1))

    print("| workload | metric | bound | set | median | q1 | q3 | spread | shift |")
    print("|---|---|---|---|---|---|---|---|---|")
    verdict = 0
    for workload, (first, second) in results.items():
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            med1, q1, q3, spread1 = summary([r[name] for r in first])
            med2, p1, p3, spread2 = summary([r[name] for r in second])
            worse = (med2 - med1) if metric["better"] == "lower" else (med1 - med2)
            shift = worse / med1 if med1 else 0.0
            verdict |= spread1 > bound or spread2 > bound or shift > bound
            print(f"| {workload} | {name} | {bound} | 1 | {med1:.6g} | {q1:.6g} "
                  f"| {q3:.6g} | {spread1:.3f} |  |")
            print(f"| {workload} | {name} | {bound} | 2 | {med2:.6g} | {p1:.6g} "
                  f"| {p3:.6g} | {spread2:.3f} | {shift:+.3f} |")
    return 1 if verdict else 0


if __name__ == "__main__":
    sys.exit(main())
