// mframe_perfbench: times libmframe's verified synthesis flow on one workload.
//
//   mframe_perfbench --workload <paper_flow|graph_flow|paper_tune>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--revision <id>] [--trace-out <file.json>]
//
// One process, one thread. Passes repeat until --seconds have elapsed; each
// pass builds the inputs from scratch (set-up), then takes every design
// through the flow, timing every public call, and checks its output (timed
// apart) before the next design.
// Before design passes a fixed reference piece of work measures the host's
// speed, and every reported time is given in units of the reference.
// With --trace 0 the end-to-end metrics are reported; with --trace 1 untraced
// and traced passes alternate, and the traced ones give the per-layer
// metrics. The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. perfbench/README.md defines every metric.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "flow.h"
#include "reference.h"
#include "spans.h"
#include "stats.h"
#include "trace/trace.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

namespace mf = mframe;
using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

struct Options {
  Workload workload = Workload::PaperFlow;
  std::uint32_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string revision = "unknown";
  std::string traceOut;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "mframe_perfbench: %s\nusage: mframe_perfbench --workload "
               "<paper_flow|graph_flow|paper_tune> --seed <n> --seconds <s> "
               "--trace <0|1> [--revision <id>] [--trace-out <file>]\n",
               why.c_str());
  std::exit(2);
}

Options parseArgs(int argc, char** argv) {
  Options o;
  bool haveWorkload = false, haveSeed = false, haveSeconds = false, haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) usage("missing value after " + std::string(arg));
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      const auto w = parseWorkload(val);
      if (!w) usage("unknown workload '" + val + "'");
      o.workload = *w;
      haveWorkload = true;
    } else if (arg == "--seed") {
      const unsigned long long s = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0' || val[0] == '-' || s > 0xffffffffULL)
        usage("--seed takes an integer from 0 to 2^32-1");
      o.seed = static_cast<std::uint32_t>(s);
      haveSeed = true;
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || !(o.seconds > 0 && o.seconds <= 3600))
        usage("--seconds takes a number in (0, 3600]");
      haveSeconds = true;
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") usage("--trace takes 0 or 1");
      o.trace = val == "1";
      haveTrace = true;
    } else if (arg == "--revision") {
      o.revision = val;
    } else if (arg == "--trace-out") {
      o.traceOut = val;
    } else {
      usage("unknown option " + std::string(arg));
    }
  }
  if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace)
    usage("--workload, --seed, --seconds and --trace are all required");
  return o;
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(PERFBENCH_SANITIZED)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

/// Timings are only meaningful from an optimised, uninstrumented build.
std::string untimeableBuild() {
  if (std::string_view(PERFBENCH_BUILD_TYPE) != "Release")
    return "build type is '" PERFBENCH_BUILD_TYPE "', not Release";
  if (kSanitized) return "the build is instrumented by a sanitizer";
#ifndef NDEBUG
  return "assertions are enabled (NDEBUG is not defined)";
#else
  return {};
#endif
}

std::string provenanceJson(const Options& o) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"revision\": \"%s\", \"build_type\": \"%s\", \"compiler\": "
                "\"%s\", \"nproc\": %ld, \"workload\": \"%s\", \"seed\": %u}",
                o.revision.c_str(), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
                sysconf(_SC_NPROCESSORS_ONLN),
                std::string(workloadName(o.workload)).c_str(), o.seed);
  return buf;
}

// ------------------------------------------------------------------ passes

using Counters = std::vector<std::pair<std::string_view, std::uint64_t>>;

/// The host-speed reference of one run, sampled between design passes so
/// that it sees the host the flow saw.
struct Reference {
  Clock::time_point start = Clock::now();
  std::vector<double> ms;  ///< every sample
  double totalMs = 0;
  double latestMs = 0;     ///< the fastest sample of the latest burst

  /// Time the reference until it has had 3% of the run; returns how fast
  /// the host is now, the fastest time of the latest burst of samples.
  double sample() {
    double burstMs = 0;
    while (ms.empty() || totalMs < 0.03 * msSince(start, Clock::now())) {
      ms.push_back(timeReference());
      totalMs += ms.back();
      burstMs = burstMs > 0 ? std::min(burstMs, ms.back()) : ms.back();
    }
    if (burstMs > 0) latestMs = burstMs;
    return latestMs;
  }

  /// Factor that rescales the run's times to the reference host's speed.
  double scale() const { return kReferenceMs / fastest(ms); }
};

struct Pass {
  double setupS = 0, flowMs = 0, checkMs = 0;
  std::vector<double> stageMs;  ///< design-major: [design * kNumStages + stage]
  std::vector<double> referenceMs;  ///< like stageMs: the reference before the design pass
  int attempted = 0, failed = 0;
  std::string failure;  ///< the first failed design's reason
  Qor qor;  ///< summed over the pass's designs
  Counters counters;
};

/// One complete pass. Each design is checked, and its outcome freed, right
/// after its flow, so a pass holds one design's artifacts at a time; the check
/// and the free are timed apart from the flow. A traced pass records spans
/// into `spans` and counts the flow (not set-up or check) with libmframe's
/// trace counters.
Pass runPass(const Options& opt, Spans* spans, int& designPass, Reference& ref) {
  Pass p;
  const auto t0 = Clock::now();
  const Inputs in = makeInputs(opt.workload, opt.seed);
  p.setupS = msSince(t0, Clock::now()) / 1e3;
  if (spans) mf::trace::resetCounters();
  for (const Design& d : in.designs) {
    p.referenceMs.insert(p.referenceMs.end(), kNumStages, ref.sample());
    mf::trace::enableCounters(spans != nullptr);
    Clock::time_point flowEnd;
    const auto flowStart = Clock::now();
    {
      const Outcome o = opt.workload == Workload::PaperTune
                            ? tune(d, in.lib, spans, designPass++)
                            : synthesize(d, in.lib, spans, designPass++);
      flowEnd = Clock::now();
      mf::trace::enableCounters(false);
      const Verdict v = check(d, o, opt.seed);
      ++p.attempted;
      if (!v.failure.empty() && p.failed++ == 0)
        p.failure = d.reference.name() + ": " + v.failure;
      p.qor += v.qor;
      p.stageMs.insert(p.stageMs.end(), o.stageMs.begin(), o.stageMs.end());
    }  // freeing the outcome is timed with the check
    p.flowMs += msSince(flowStart, flowEnd);
    p.checkMs += msSince(flowEnd, Clock::now());
  }
  if (spans) p.counters = mf::trace::counterSnapshot();
  return p;
}

/// Everything a run saw, over all of its passes.
struct Run {
  int attempted = 0, failed = 0;
  std::vector<std::string> problems;  ///< reasons the run is not correct
  std::vector<double> setupS, untracedMs, tracedMs, checkMs;
  SlotTimes untracedStages;  ///< the flow_ms statistic
  std::vector<std::vector<double>> tracedReferences;  ///< Pass::referenceMs of each traced pass
  Reference reference;
  std::optional<Qor> qor;
  Counters counters;

  void problem(const std::string& why) {
    if (std::find(problems.begin(), problems.end(), why) == problems.end())
      problems.push_back(why);
  }

  void add(const Pass& p, bool traced) {
    attempted += p.attempted;
    failed += p.failed;
    if (p.failed > 0) problem(p.failure);
    setupS.push_back(p.setupS);
    checkMs.push_back(p.checkMs);
    if (traced) {
      tracedMs.push_back(p.flowMs);
      tracedReferences.push_back(p.referenceMs);
      if (counters.empty()) counters = p.counters;
      else if (counters != p.counters)
        problem("work counters changed between identical passes");
    } else {
      untracedMs.push_back(p.flowMs);
      untracedStages.add(p.stageMs, p.referenceMs);
    }
    if (!qor) qor = p.qor;
    else if (*qor != p.qor)
      problem("the output's area, latency or size changed between passes");
  }
};

// ----------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// This process's peak resident set. VmHWM, unlike getrusage's ru_maxrss,
/// does not carry over the parent's peak through exec.
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;
}

std::vector<Metric> endToEnd(const Run& r) {
  const Qor q = r.qor.value_or(Qor{});
  return {{"flow_ms", r.untracedStages.sum() * kReferenceMs, "ms"},
          {"setup_s", fastest(r.setupS) * r.reference.scale(), "s"},
          {"peak_rss_mb", peakRssMb(), "MB"},
          {"area_um2", q.areaUm2, "um2"},
          {"latency_steps", static_cast<double>(q.steps), "steps"},
          {"min_clock_ns", q.minClockNs, "ns/cycle"}};
}

/// The trace:: counters reported as work counts.
constexpr mf::trace::Counter kCounters[] = {
    mf::trace::Counter::MfsaCandidates,  mf::trace::Counter::MfsaCommits,
    mf::trace::Counter::MfsaRestarts,    mf::trace::Counter::MuxDeltaIncremental,
    mf::trace::Counter::StaEndpoints,    mf::trace::Counter::DataflowWorklistIterations,
    mf::trace::Counter::AuditRbwChecks,  mf::trace::Counter::RangeStates,
    mf::trace::Counter::LiapunovCellEvals, mf::trace::Counter::TuneIterations,
    mf::trace::Counter::TuneConeOps,     mf::trace::Counter::TuneStitches,
    mf::trace::Counter::TuneRejectedStitches, mf::trace::Counter::DfgCsrEdges};

/// What the spans of the traced passes say, given the span range
/// [first, last) each traced pass recorded and its reference times.
struct Layers {
  SlotTimes stages;               ///< span self time of each (design, stage)
  std::vector<double> coverage;   ///< share of each traced pass its stages cover
};

Layers layerTimes(const Spans& spans,
                  const std::vector<std::pair<std::size_t, std::size_t>>& ranges,
                  const std::vector<std::vector<double>>& references) {
  const auto& recs = spans.records();
  const std::vector<std::int64_t> self = selfTimesNs(recs);
  Layers out;
  for (std::size_t k = 0; k < ranges.size(); ++k) {
    const auto [first, last] = ranges[k];
    std::vector<double> slots;
    std::int64_t passNs = 0, stageNs = 0;
    for (std::size_t i = first; i < last; ++i) {
      if (recs[i].parent < 0) {
        slots.resize(slots.size() + kNumStages, 0.0);
        passNs += recs[i].endNs - recs[i].startNs;
        continue;
      }
      const auto* name = std::find(std::begin(kStageNames), std::end(kStageNames),
                                   std::string_view(recs[i].name));
      slots[slots.size() - kNumStages + (name - std::begin(kStageNames))] += self[i] / 1e6;
      stageNs += self[i];
    }
    out.coverage.push_back(passNs > 0 ? static_cast<double>(stageNs) / passNs : 1.0);
    out.stages.add(slots, references[k]);
  }
  return out;
}

std::uint64_t counterOf(const Run& r, mf::trace::Counter c) {
  const std::string_view name = mf::trace::counterName(c);
  for (const auto& [n, v] : r.counters)
    if (n == name) return v;
  return 0;
}

std::vector<Metric> perLayer(const Run& r, const Layers& layers) {
  std::vector<Metric> out;
  const std::vector<double>& slots = layers.stages.values();
  for (int s = 0; s < kNumStages; ++s) {
    double ms = 0;
    for (std::size_t i = s; i < slots.size(); i += kNumStages) ms += slots[i];
    out.push_back({std::string(kStageNames[s]) + "_ms", ms * kReferenceMs, "ms"});
  }
  for (mf::trace::Counter c : kCounters)
    out.push_back({std::string(mf::trace::counterName(c)),
                   static_cast<double>(counterOf(r, c)), "count"});
  using C = mf::trace::Counter;
  out.push_back({"mfsa.commit_yield",
                 commitYield(counterOf(r, C::MfsaCommits), counterOf(r, C::MfsaCandidates)),
                 "ratio"});
  out.push_back({"tune.stitch_yield",
                 stitchYield(counterOf(r, C::TuneStitches),
                             counterOf(r, C::TuneRejectedStitches)),
                 "ratio"});
  const Qor q = r.qor.value_or(Qor{});
  out.push_back({"rtl.alus", static_cast<double>(q.alus), "count"});
  out.push_back({"rtl.regs", static_cast<double>(q.regs), "count"});
  out.push_back({"rtl.mux_inputs", static_cast<double>(q.muxInputs), "count"});
  out.push_back({"rtl.fsm_states", static_cast<double>(q.fsmStates), "count"});
  out.push_back({"rtl.verilog_kb", q.verilogBytes / 1024.0, "KiB"});
  out.push_back({"sim.check_ms", fastest(r.checkMs) * r.reference.scale(), "ms"});
  out.push_back({"trace.overhead_pct",
                 (layers.stages.sum() / r.untracedStages.sum() - 1.0) * 100.0, "%"});
  out.push_back({"harness.passes", static_cast<double>(r.untracedMs.size()), "count"});
  out.push_back({"harness.flow_ms_p50", quantile(r.untracedMs, 0.5), "ms"});
  out.push_back({"harness.flow_ms_p90", quantile(r.untracedMs, 0.9), "ms"});
  out.push_back({"harness.reference_ms", fastest(r.reference.ms), "ms"});
  return out;
}

void report(const Options& opt, const Run& r, const std::vector<Metric>& metrics) {
  std::printf("%s, %s run: %d design passes, %d failed; %zu untraced passes, "
              "fastest whole pass %.3f ms, p50 %.3f ms, p90 %.3f ms; reference "
              "fastest %.4f ms of %zu, times scaled by %.4f\n",
              std::string(workloadName(opt.workload)).c_str(),
              opt.trace ? "traced" : "untraced", r.attempted, r.failed,
              r.untracedMs.size(), fastest(r.untracedMs),
              quantile(r.untracedMs, 0.5), quantile(r.untracedMs, 0.9),
              fastest(r.reference.ms), r.reference.ms.size(), r.reference.scale());
  for (const std::string& p : r.problems) std::printf("problem: %s\n", p.c_str());
  for (const Metric& m : metrics)
    std::printf("  %-28s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());

  std::string json = "{\"correct\": ";
  json += r.problems.empty() && r.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int run(const Options& opt) {
  if (const std::string why = untimeableBuild(); !why.empty()) {
    std::fprintf(stderr, "mframe_perfbench: refusing to time: %s\n", why.c_str());
    return 3;
  }
  std::printf("provenance %s\n", provenanceJson(opt).c_str());
  std::fflush(stdout);
  Run r;
  Spans spans;
  std::vector<std::pair<std::size_t, std::size_t>> tracedRanges;
  int designPass = 0;
  const auto start = r.reference.start;
  // A traced run alternates untraced and traced passes, so both see the same
  // host conditions and their difference is the tracing overhead.
  for (bool traced = false;; traced = opt.trace && !traced) {
    const std::size_t first = spans.records().size();
    r.add(runPass(opt, traced ? &spans : nullptr, designPass, r.reference), traced);
    if (traced) tracedRanges.emplace_back(first, spans.records().size());
    const bool done = msSince(start, Clock::now()) >= opt.seconds * 1e3;
    if (done && (!opt.trace || !r.tracedMs.empty())) break;
  }

  if (!opt.trace) {
    report(opt, r, endToEnd(r));
    return 0;
  }
  // A stage left out of the spans shows in every pass; a preemption between
  // two stages only in a few, so the typical pass is the one judged.
  const Layers layers = layerTimes(spans, tracedRanges, r.tracedReferences);
  const double coverage = quantile(layers.coverage, 0.5);
  std::printf("stage self times cover %.2f%% of the median traced pass "
              "(%.2f%% of the least covered)\n",
              coverage * 100, fastest(layers.coverage) * 100);
  if (coverage < 0.95)
    r.problem("stage self times cover less than 95% of a traced pass");
  if (!opt.traceOut.empty()) {
    std::ofstream out(opt.traceOut);
    out << spans.chromeJson(provenanceJson(opt));
    if (!out) r.problem("cannot write the trace to " + opt.traceOut);
  }
  report(opt, r, perLayer(r, layers));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mframe_perfbench: %s\n", e.what());
    return 1;
  }
}
