// Structured tracing and metrics for the synthesis pipeline.
//
// Two independent facilities behind one flag each, both process-global:
//
//  * **Spans** — RAII scopes that record wall-clock extents into an in-memory
//    buffer and serialize as Chrome trace-event JSON ("X" complete events),
//    loadable in chrome://tracing or Perfetto. Tracing is off by default;
//    a disabled Span costs one relaxed atomic load and no allocation.
//
//  * **Counters** — a fixed, enum-indexed registry of relaxed atomics for
//    the quantities the pipeline otherwise flies blind on (MFSA candidate
//    evaluations, mux-delta fallbacks, dataflow worklist iterations, ...).
//    Increments are commutative sums, so every counter is *deterministic*:
//    bit-identical across `--jobs 1` and `--jobs 8` for the same work
//    (the explorer's determinism contract extends to the metrics block).
//    A disabled bump costs one relaxed load and a predicted-not-taken
//    branch, keeping the instrumented hot paths within noise.
//
// Span names must be string literals (the buffer stores the pointer).
// See docs/TRACE.md for the span/counter inventory and the JSON schemas.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mframe::trace {

// ---------------------------------------------------------------- counters

enum class Counter : int {
  MfsaRuns = 0,           ///< runMfsa invocations
  MfsaCandidates,         ///< (ALU × step) candidates costed
  MfsaCommits,            ///< moves committed
  MfsaRestarts,           ///< local-rescheduling restarts
  LiapunovUpdates,        ///< committed V updates (MFS + MFSA)
  LiapunovCellEvals,      ///< MFS move-frame cells probed by the walk
  MuxFullArrangements,    ///< from-scratch arrangeInputs runs
  MuxDeltaIncremental,    ///< arrangeInputsDelta resolved incrementally
  MuxDeltaRebuilds,       ///< arrangeInputsDelta full-rebuild fallbacks
  DataflowWorklistIterations,  ///< dataflow-engine node evaluations
  DataflowWidenings,      ///< fixpoints where the widening threshold fired
  StaEndpoints,           ///< register/output endpoints timed by the STA
  ExploreConfigs,         ///< explorer sweep items dispatched
  ExploreFeasible,        ///< feasible candidates found by the explorer
  TuneIterations,         ///< tune-loop iterations executed
  TuneConeOps,            ///< operations extracted into tune cones (total)
  TuneStitches,           ///< cone re-schedules accepted and stitched back
  TuneRejectedStitches,   ///< stitches refused (verify or prove said no)
  AuditReachableStates,   ///< FSM states the audit proved reachable from reset
  AuditRbwChecks,         ///< register-operand definedness checks performed
  AuditFindings,          ///< AUD diagnostics emitted
  RangeStates,            ///< FSM states the range analysis interpreted
  RangeWidenings,         ///< loop-head interval widenings applied
  RangeAsserts,           ///< .bind range assertions checked
  RangeFindings,          ///< WID diagnostics emitted
  DfgFreezes,             ///< Dfg::freeze index builds
  DfgCsrEdges,            ///< CSR edges laid out across all freezes
  VerifyCells,            ///< cells + same-cell pairs of the occupancy sweep
  StaPathLines,           ///< timing path lines formatted for reported paths
  ProveIssueAttempts,     ///< prove's issue executions, chained retries included
  MfsaOccupancyProbes,    ///< steps MFSA's per-ALU walks examined, hops included
  kCount
};

inline constexpr int kNumCounters = static_cast<int>(Counter::kCount);

/// Stable dotted name, e.g. "mfsa.candidates"; used as the JSON key.
std::string_view counterName(Counter c);

namespace detail {
extern std::atomic<bool> gCountersOn;
extern std::array<std::atomic<std::uint64_t>, kNumCounters> gCounters;
}  // namespace detail

inline bool countersEnabled() {
  return detail::gCountersOn.load(std::memory_order_relaxed);
}

void enableCounters(bool on);
void resetCounters();

/// Add `n` to counter `c`; a no-op (one load + branch) while disabled.
inline void bump(Counter c, std::uint64_t n = 1) {
  if (countersEnabled())
    detail::gCounters[static_cast<std::size_t>(c)].fetch_add(
        n, std::memory_order_relaxed);
}

std::uint64_t counterValue(Counter c);

/// All counters in declaration order (including zeros), for snapshots and
/// determinism comparisons.
std::vector<std::pair<std::string_view, std::uint64_t>> counterSnapshot();

/// Metrics block: {"schema": 1, "counters": {...}, "derived": {...}}.
/// Derived rates (e.g. mux.deltaIncrementalRate) are pure functions of the
/// counters, so the whole block is deterministic. `indent` prefixes every
/// line.
std::string metricsJson(const std::string& indent = "");

/// Human-readable counter table plus derived rates.
std::string metricsText();

// ------------------------------------------------------------------- spans

bool tracingEnabled();

/// Start collecting spans: clears the buffer and sets the epoch.
void beginTracing();

/// Stop collecting; already-recorded events stay in the buffer.
void endTracing();

/// Microseconds since beginTracing(), or 0 while tracing is disabled.
std::uint64_t nowUs();

/// Append a complete ("X") event directly; `argsJson` is an optional JSON
/// object literal attached as the event's "args". For callers that measure
/// themselves (e.g. the thread pool's per-worker utilization records).
void completeEvent(const char* name, std::uint64_t startUs,
                   const std::string& argsJson = "");

/// The whole trace as Chrome trace-event JSON: {"traceEvents": [...],
/// "displayTimeUnit": "ms", "metrics": {...}} — the metrics block rides
/// along so one file carries both timings and counters.
std::string traceJson();

/// Serialize traceJson() to `path`; false when the file cannot be written.
bool writeTrace(const std::string& path);

/// RAII span. Records nothing while tracing is disabled. `name` must be a
/// string literal (or otherwise outlive the tracing session).
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;  ///< nullptr = disabled at construction
  std::uint64_t startUs_ = 0;
};

}  // namespace mframe::trace
