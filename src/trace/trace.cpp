#include "trace/trace.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>

#include "util/strings.h"

namespace mframe::trace {

// ---------------------------------------------------------------- counters

namespace detail {
std::atomic<bool> gCountersOn{false};
std::array<std::atomic<std::uint64_t>, kNumCounters> gCounters{};
}  // namespace detail

std::string_view counterName(Counter c) {
  switch (c) {
    case Counter::MfsaRuns: return "mfsa.runs";
    case Counter::MfsaCandidates: return "mfsa.candidates";
    case Counter::MfsaCommits: return "mfsa.commits";
    case Counter::MfsaRestarts: return "mfsa.restarts";
    case Counter::LiapunovUpdates: return "liapunov.updates";
    case Counter::LiapunovCellEvals: return "liapunov.cellEvals";
    case Counter::MuxFullArrangements: return "mux.fullArrangements";
    case Counter::MuxDeltaIncremental: return "mux.deltaIncremental";
    case Counter::MuxDeltaRebuilds: return "mux.deltaRebuilds";
    case Counter::DataflowWorklistIterations:
      return "dataflow.worklistIterations";
    case Counter::DataflowWidenings: return "dataflow.widenings";
    case Counter::StaEndpoints: return "sta.endpoints";
    case Counter::ExploreConfigs: return "explore.configs";
    case Counter::ExploreFeasible: return "explore.feasible";
    case Counter::TuneIterations: return "tune.iterations";
    case Counter::TuneConeOps: return "tune.coneOps";
    case Counter::TuneStitches: return "tune.stitches";
    case Counter::TuneRejectedStitches: return "tune.rejectedStitches";
    case Counter::AuditReachableStates: return "audit.reachableStates";
    case Counter::AuditRbwChecks: return "audit.rbwChecks";
    case Counter::AuditFindings: return "audit.findings";
    case Counter::RangeStates: return "range.states";
    case Counter::RangeWidenings: return "range.widenings";
    case Counter::RangeAsserts: return "range.asserts";
    case Counter::RangeFindings: return "range.findings";
    case Counter::DfgFreezes: return "dfg.freezes";
    case Counter::DfgCsrEdges: return "dfg.csrEdges";
    case Counter::VerifyCells: return "verify.cells";
    case Counter::StaPathLines: return "sta.pathLines";
    case Counter::ProveIssueAttempts: return "prove.issueAttempts";
    case Counter::MfsaOccupancyProbes: return "mfsa.occupancyProbes";
    case Counter::kCount: break;
  }
  return "?";
}

void enableCounters(bool on) {
  detail::gCountersOn.store(on, std::memory_order_relaxed);
}

void resetCounters() {
  for (auto& c : detail::gCounters) c.store(0, std::memory_order_relaxed);
}

std::uint64_t counterValue(Counter c) {
  return detail::gCounters[static_cast<std::size_t>(c)].load(
      std::memory_order_relaxed);
}

std::vector<std::pair<std::string_view, std::uint64_t>> counterSnapshot() {
  std::vector<std::pair<std::string_view, std::uint64_t>> out;
  out.reserve(kNumCounters);
  for (int i = 0; i < kNumCounters; ++i) {
    const auto c = static_cast<Counter>(i);
    out.emplace_back(counterName(c), counterValue(c));
  }
  return out;
}

namespace {

/// hits / (hits + misses), or 0 when the denominator is empty.
double rateOf(Counter hit, Counter miss) {
  const double h = static_cast<double>(counterValue(hit));
  const double m = static_cast<double>(counterValue(miss));
  return h + m > 0.0 ? h / (h + m) : 0.0;
}

std::vector<std::pair<std::string_view, double>> derivedRates() {
  std::vector<std::pair<std::string_view, double>> out;
  out.emplace_back("mux.deltaIncrementalRate",
                   rateOf(Counter::MuxDeltaIncremental,
                          Counter::MuxDeltaRebuilds));
  const double configs =
      static_cast<double>(counterValue(Counter::ExploreConfigs));
  out.emplace_back(
      "explore.feasibleRate",
      configs > 0.0
          ? static_cast<double>(counterValue(Counter::ExploreFeasible)) /
                configs
          : 0.0);
  return out;
}

}  // namespace

std::string metricsJson(const std::string& indent) {
  std::string out;
  out += "{\"schema\": 1,\n";
  out += indent + " \"counters\": {\n";
  const auto counters = counterSnapshot();
  for (std::size_t i = 0; i < counters.size(); ++i)
    out += indent +
           util::format("  \"%s\": %llu%s\n",
                        std::string(counters[i].first).c_str(),
                        static_cast<unsigned long long>(counters[i].second),
                        i + 1 < counters.size() ? "," : "");
  out += indent + " },\n";
  out += indent + " \"derived\": {\n";
  const auto rates = derivedRates();
  for (std::size_t i = 0; i < rates.size(); ++i)
    out += indent + util::format("  \"%s\": %.6f%s\n",
                                 std::string(rates[i].first).c_str(),
                                 rates[i].second,
                                 i + 1 < rates.size() ? "," : "");
  out += indent + " }\n";
  out += indent + "}";
  return out;
}

std::string metricsText() {
  std::string out = "metrics:\n";
  for (const auto& [name, value] : counterSnapshot())
    out += util::format("  %-28s %llu\n", std::string(name).c_str(),
                        static_cast<unsigned long long>(value));
  for (const auto& [name, rate] : derivedRates())
    out += util::format("  %-28s %.3f\n", std::string(name).c_str(), rate);
  return out;
}

// ------------------------------------------------------------------- spans

namespace {

struct Event {
  const char* name;
  int tid;
  std::uint64_t startUs;
  std::uint64_t durUs;
  std::string args;  ///< JSON object literal, or empty
};

struct Session {
  std::atomic<bool> on{false};
  std::chrono::steady_clock::time_point epoch;
  std::mutex mu;
  std::vector<Event> events;
  std::map<std::thread::id, int> tids;

  int tidOf(std::thread::id id) {
    auto it = tids.find(id);
    if (it != tids.end()) return it->second;
    const int tid = static_cast<int>(tids.size()) + 1;
    tids.emplace(id, tid);
    return tid;
  }
};

Session& session() {
  static Session s;
  return s;
}

}  // namespace

bool tracingEnabled() {
  return session().on.load(std::memory_order_relaxed);
}

void beginTracing() {
  Session& s = session();
  const std::lock_guard<std::mutex> lock(s.mu);
  s.events.clear();
  s.tids.clear();
  s.epoch = std::chrono::steady_clock::now();
  s.on.store(true, std::memory_order_relaxed);
}

void endTracing() { session().on.store(false, std::memory_order_relaxed); }

std::uint64_t nowUs() {
  if (!tracingEnabled()) return 0;
  const auto d = std::chrono::steady_clock::now() - session().epoch;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(d).count());
}

void completeEvent(const char* name, std::uint64_t startUs,
                   const std::string& argsJson) {
  if (!tracingEnabled()) return;
  const std::uint64_t end = nowUs();
  Session& s = session();
  const std::lock_guard<std::mutex> lock(s.mu);
  s.events.push_back({name, s.tidOf(std::this_thread::get_id()), startUs,
                      end > startUs ? end - startUs : 0, argsJson});
}

std::string traceJson() {
  Session& s = session();
  const std::lock_guard<std::mutex> lock(s.mu);
  std::string out = "{\"traceEvents\": [\n";
  out +=
      "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
      "\"args\": {\"name\": \"mframe\"}}";
  for (const Event& e : s.events) {
    out += util::format(
        ",\n  {\"name\": \"%s\", \"cat\": \"mframe\", \"ph\": \"X\", "
        "\"ts\": %llu, \"dur\": %llu, \"pid\": 1, \"tid\": %d",
        e.name, static_cast<unsigned long long>(e.startUs),
        static_cast<unsigned long long>(e.durUs), e.tid);
    if (!e.args.empty()) out += ", \"args\": " + e.args;
    out += "}";
  }
  out += "\n],\n\"displayTimeUnit\": \"ms\",\n";
  out += "\"metrics\": " + metricsJson() + "\n}\n";
  return out;
}

bool writeTrace(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << traceJson();
  return static_cast<bool>(out);
}

Span::Span(const char* name) {
  if (!tracingEnabled()) return;
  name_ = name;
  startUs_ = nowUs();
}

Span::~Span() {
  if (name_ != nullptr) completeEvent(name_, startUs_);
}

}  // namespace mframe::trace
