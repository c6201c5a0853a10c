#!/usr/bin/env sh
# Run the google-benchmark binaries and merge their JSON reports into one
# BENCH_runtime.json tracking the repo's performance trajectory:
#   { "provenance": ..., "runtime": ..., "explore": ..., "analyze": ...,
#     "tune": ..., "audit": ..., "range": ..., "scale": ..., "metrics": ... }
# — the git revision and mframe build type the numbers come from, one
# google-benchmark report per binary, plus the pipeline counter metrics of
# pinned CLI invocations (extracted from the '{"schema": 1,' marker object
# that --metrics=json appends to stdout). Counters are deterministic, so
# tools/bench-compare.sh gates on them exactly. (google-benchmark's own
# "library_build_type" describes the benchmark library, not mframe.)
#
# Usage: tools/bench-json.sh [build-dir] [output-file]
#   build-dir    tree containing bench/bench_runtime (default: build)
#   output-file  merged report path (default: BENCH_runtime.json in the repo)
#
# BENCH_MIN_TIME (seconds, e.g. 0.01) shortens each measurement for CI smoke
# runs; leave it unset for trustworthy numbers.
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=${1:-$repo/build}
out=${2:-$repo/BENCH_runtime.json}

for bin in bench_runtime bench_explore bench_analyze bench_tune bench_audit \
           bench_range bench_scale; do
  if [ ! -x "$build/bench/$bin" ]; then
    echo "bench-json.sh: $build/bench/$bin not built" >&2
    exit 1
  fi
done

minTimeArg=""
if [ "${BENCH_MIN_TIME:-}" != "" ]; then
  minTimeArg="--benchmark_min_time=$BENCH_MIN_TIME"
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Provenance: the measured revision ("-dirty" when the work tree has
# uncommitted changes) and the build tree's CMAKE_BUILD_TYPE, which the
# project records in the cache even when it falls back to its default.
revision=$(git -C "$repo" rev-parse HEAD 2>/dev/null || echo unknown)
if [ "$revision" != unknown ] &&
   [ -n "$(git -C "$repo" status --porcelain --untracked-files=no)" ]; then
  revision="$revision-dirty"
fi
buildType=unknown
if [ -r "$build/CMakeCache.txt" ]; then
  buildType=$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$build/CMakeCache.txt")
fi

# shellcheck disable=SC2086  # minTimeArg is intentionally word-split
"$build/bench/bench_runtime" --benchmark_format=json $minTimeArg \
  > "$tmp/runtime.json"
# shellcheck disable=SC2086
"$build/bench/bench_explore" --benchmark_format=json $minTimeArg \
  > "$tmp/explore.json"
# shellcheck disable=SC2086
"$build/bench/bench_analyze" --benchmark_format=json $minTimeArg \
  > "$tmp/analyze.json"
# shellcheck disable=SC2086
"$build/bench/bench_tune" --benchmark_format=json $minTimeArg \
  > "$tmp/tune.json"
# shellcheck disable=SC2086
"$build/bench/bench_audit" --benchmark_format=json $minTimeArg \
  > "$tmp/audit.json"
# shellcheck disable=SC2086
"$build/bench/bench_range" --benchmark_format=json $minTimeArg \
  > "$tmp/range.json"
# shellcheck disable=SC2086
"$build/bench/bench_scale" --benchmark_format=json $minTimeArg \
  > "$tmp/scale.json"

# Counter metrics from pinned CLI runs. python3 is only needed for this
# extraction; without it the report simply lacks the metrics key (and
# bench-compare.sh will say so).
haveMetrics=0
if command -v python3 >/dev/null 2>&1 && [ -x "$build/tools/mframe" ]; then
  designs="$repo/tools/designs"
  "$build/tools/mframe" synth "$designs/diffeq.mfb" --steps 4 \
    --metrics=json > "$tmp/synth.out"
  "$build/tools/mframe" explore "$designs/diffeq.mfb" --jobs 2 \
    --metrics=json > "$tmp/explore.out"
  "$build/tools/mframe" tune "$designs/slowchain.dfg" --clock 100 --jobs 2 \
    --metrics=json > "$tmp/tune.out"
  "$build/tools/mframe" audit "$designs/diffeq.mfb" --steps 4 \
    --metrics=json > "$tmp/audit.out"
  "$build/tools/mframe" range "$designs/chained.dfg" --steps 6 \
    --metrics=json > "$tmp/range.out"
  python3 - "$tmp/synth.out" "$tmp/explore.out" "$tmp/tune.out" \
    "$tmp/audit.out" "$tmp/range.out" > "$tmp/metrics.json" <<'EOF'
import json
import sys

def extract(path):
    text = open(path).read()
    i = text.rfind('{"schema": 1,')
    if i < 0:
        raise SystemExit(f"bench-json.sh: no metrics marker in {path}")
    return json.loads(text[i:])

print(json.dumps({
    "synth_diffeq": extract(sys.argv[1]),
    "explore_diffeq": extract(sys.argv[2]),
    "tune_slowchain": extract(sys.argv[3]),
    "audit_diffeq": extract(sys.argv[4]),
    "range_chained": extract(sys.argv[5]),
}, indent=1))
EOF
  haveMetrics=1
else
  echo "bench-json.sh: python3 or tools/mframe missing; omitting metrics" >&2
fi

{
  printf '{\n"provenance": {"git_revision": "%s", "build_type": "%s"},\n' \
    "$revision" "$buildType"
  printf '"runtime":\n'
  cat "$tmp/runtime.json"
  printf ',\n"explore":\n'
  cat "$tmp/explore.json"
  printf ',\n"analyze":\n'
  cat "$tmp/analyze.json"
  printf ',\n"tune":\n'
  cat "$tmp/tune.json"
  printf ',\n"audit":\n'
  cat "$tmp/audit.json"
  printf ',\n"range":\n'
  cat "$tmp/range.json"
  printf ',\n"scale":\n'
  cat "$tmp/scale.json"
  if [ "$haveMetrics" = 1 ]; then
    printf ',\n"metrics":\n'
    cat "$tmp/metrics.json"
  fi
  printf '}\n'
} > "$out"

echo "bench-json.sh: wrote $out"
