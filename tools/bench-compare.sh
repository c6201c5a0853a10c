#!/usr/bin/env sh
# Drift gate: compare a freshly generated BENCH_runtime.json against the
# committed baseline.
#
#  * metrics counters — deterministic by construction (commutative sums over
#    fixed work; see src/trace/trace.h), so they are compared EXACTLY. Any
#    drift means an algorithm change landed and must be acknowledged by
#    regenerating the baseline with tools/bench-json.sh.
#  * benchmark timings — compared with a relative tolerance on real_time
#    (BENCH_COMPARE_TOL, default 0.50 = +50%); only slowdowns fail. Set
#    BENCH_COMPARE_SKIP_TIME=1 to skip timings entirely — always do so for
#    BENCH_MIN_TIME smoke reports, whose numbers are meaningless.
#
# Usage: tools/bench-compare.sh [fresh-report] [baseline-report]
#   fresh-report     default: build/BENCH_runtime.json
#   baseline-report  default: BENCH_runtime.json (committed)
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
fresh=${1:-$repo/build/BENCH_runtime.json}
base=${2:-$repo/BENCH_runtime.json}

if ! command -v python3 >/dev/null 2>&1; then
  echo "bench-compare.sh: python3 not found; cannot compare" >&2
  exit 1
fi
for f in "$fresh" "$base"; do
  if [ ! -r "$f" ]; then
    echo "bench-compare.sh: cannot read $f" >&2
    exit 1
  fi
done

python3 - "$fresh" "$base" <<'EOF'
import json
import os
import sys

fresh = json.load(open(sys.argv[1]))
base = json.load(open(sys.argv[2]))
fails = []

# Counters: exact.
fm, bm = fresh.get("metrics"), base.get("metrics")
if bm is None:
    print("bench-compare: baseline has no metrics key; "
          "regenerate it with tools/bench-json.sh")
elif fm is None:
    fails.append("fresh report has no metrics key")
else:
    for run in sorted(bm):
        fc = fm.get(run, {}).get("counters", {})
        bc = bm[run].get("counters", {})
        for name in sorted(set(fc) | set(bc)):
            a, b = fc.get(name), bc.get(name)
            if a != b:
                fails.append(f"counter drift {run}.{name}: "
                             f"baseline {b} -> fresh {a}")

# Timings: relative tolerance, slowdowns only.
if os.environ.get("BENCH_COMPARE_SKIP_TIME") != "1":
    tol = float(os.environ.get("BENCH_COMPARE_TOL", "0.50"))
    for suite in ("runtime", "explore", "analyze", "tune", "audit", "range",
                  "scale"):
        by_name = {b["name"]: b
                   for b in fresh.get(suite, {}).get("benchmarks", [])}
        for b in base.get(suite, {}).get("benchmarks", []):
            f = by_name.get(b["name"])
            if f is None:
                fails.append(f"benchmark {suite}/{b['name']} "
                             "missing from fresh report")
                continue
            if b.get("real_time", 0) <= 0:
                continue
            rel = (f["real_time"] - b["real_time"]) / b["real_time"]
            if rel > tol:
                fails.append(f"benchmark {suite}/{b['name']} slowed "
                             f"{rel:+.0%} (tolerance {tol:.0%})")
else:
    print("bench-compare: timings skipped (BENCH_COMPARE_SKIP_TIME=1)")

for f in fails:
    print("bench-compare: FAIL:", f)
if fails:
    sys.exit(1)
print("bench-compare: OK")
EOF
