#include "analysis/criticality/criticality.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "analysis/dataflow/engine.h"
#include "util/strings.h"

namespace mframe::analysis::criticality {

namespace {

// Scores live on a fixed 1e-6 grid so equality is exact and the ranking is
// bit-identical across runs and platforms.
double quantize(double v) { return std::round(v * 1e6) / 1e6; }

/// Per-dependence-hop decay of a propagated score.
constexpr double kDecay = 0.9;

/// Operations with score >= kThreshold are reported as critical.
constexpr double kThreshold = 0.5;

/// Backward max-propagation with decay. `base[n]` holds the node's own seed
/// severity plus its structural bonus; a node's score is the larger of its
/// own base and the decayed best score among its consumers.
struct CriticalityDomain {
  using Value = double;
  const std::vector<double>& base;

  Value transfer(const dfg::Node& n, const std::vector<Value>& deps) const {
    double best = 0.0;
    for (double d : deps) best = std::max(best, d);
    return quantize(std::max(base[n.id], kDecay * best));
  }
};

}  // namespace

CriticalityResult analyzeCriticality(const rtl::Datapath& d,
                                     const timing::TimingReport& timing,
                                     const sched::SlackReport& slack,
                                     const dataflow::DataflowResult* df) {
  const dfg::Dfg& g = *d.graph;
  CriticalityResult r;
  r.score.assign(g.size(), 0.0);
  r.observedDelayNs.assign(g.size(), 0.0);

  const double clockNs = timing.clockNs > 0 ? timing.clockNs : 100.0;

  // Physically observed per-op delay: the bound module's worst-case delay
  // plus the deepest input-port mux tree plus one shared-line hop. This is
  // the delay the cone scheduler is handed in place of the node's claimed
  // `delayNs`.
  for (dfg::NodeId op = 0; op < g.size(); ++op) {
    const int alu = d.aluIndexOf(op);
    if (alu < 0) continue;
    const auto idx = static_cast<std::size_t>(alu);
    const celllib::Module& m = d.lib->module(d.alus[idx].module);
    int levels = 0;
    if (idx < d.leftPort.size())
      levels = timing::muxLevels(d.leftPort[idx].sources.size());
    if (idx < d.rightPort.size())
      levels = std::max(levels,
                        timing::muxLevels(d.rightPort[idx].sources.size()));
    r.observedDelayNs[op] = m.delayNs +
                            levels * timing::kDelayModel.muxLevelNs +
                            timing::kDelayModel.busNs;
  }

  // Seeds: violating endpoints, normalized to (1, 2] by severity.
  std::vector<double> base(g.size(), 0.0);
  for (const timing::EndpointTiming& e : timing.endpoints) {
    if (e.slackNs >= 0) continue;
    base[e.op] = 1.0 + std::min(1.0, -e.slackNs / clockNs);
    r.seeds.push_back(e.op);
  }

  // Bonus: schedule-critical ops (no frame freedom) and ops the dataflow
  // passes flag as foldable/dead (OPT001/OPT002) are cheap to move or
  // remove, so nudge them up the ranking.
  for (const sched::OpSlack& os : slack.ops)
    if (os.critical()) base[os.op] += 0.05;
  if (df != nullptr) {
    std::map<std::string, dfg::NodeId> byName;
    for (const dfg::Node& n : g.nodes())
      if (!n.name.empty()) byName.emplace(n.name, n.id);
    for (const Diagnostic& diag : df->report.diagnostics()) {
      if (diag.rule != "OPT001" && diag.rule != "OPT002") continue;
      auto it = byName.find(diag.loc.node);
      if (it != byName.end()) base[it->second] += 0.02;
    }
  }

  CriticalityDomain domain{base};
  auto fix = dataflow::solve(g, domain, dataflow::Direction::Backward);
  r.score = std::move(fix.values);
  r.engineVisits = fix.visits;

  for (const dfg::NodeId op : g.operations()) {
    r.ranked.push_back(op);
    if (r.score[op] >= kThreshold) r.critical.push_back(op);
  }
  std::stable_sort(r.ranked.begin(), r.ranked.end(),
                   [&](dfg::NodeId a, dfg::NodeId b) {
                     if (r.score[a] != r.score[b]) return r.score[a] > r.score[b];
                     return a < b;
                   });
  return r;
}

std::string CriticalityResult::toString(const dfg::Dfg& g) const {
  std::ostringstream os;
  os << "criticality: " << seeds.size() << " violating endpoint(s), "
     << critical.size() << " critical op(s)\n";
  for (dfg::NodeId op : ranked) {
    if (score[op] <= 0) break;
    os << util::format("  %-12s score %.4f  observed %.1f ns\n",
                       g.node(op).name.c_str(), score[op],
                       observedDelayNs[op]);
  }
  return os.str();
}

}  // namespace mframe::analysis::criticality
