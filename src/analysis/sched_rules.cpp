#include "analysis/sched_rules.h"

#include <algorithm>
#include <map>
#include <vector>

#include "analysis/rules.h"
#include "util/strings.h"

namespace mframe::analysis {

namespace {

using dfg::NodeId;
using sched::Constraints;
using sched::Placement;
using sched::Schedule;

/// Steps during which `n` occupies its FU column, folded mod latency when
/// functional pipelining is on. Structurally pipelined FUs are handled
/// separately (start-step conflicts only).
std::vector<int> occupiedSteps(const dfg::Node& n, const Placement& p,
                               const Constraints& c) {
  std::vector<int> steps;
  for (int s = p.step; s < p.step + n.cycles; ++s)
    steps.push_back(c.latency > 0 ? ((s - 1) % c.latency) : s);
  return steps;
}

bool stepsIntersect(const std::vector<int>& a, const std::vector<int>& b) {
  for (int x : a)
    if (std::find(b.begin(), b.end(), x) != b.end()) return true;
  return false;
}

}  // namespace

LintReport lintSchedule(const Schedule& s, const Constraints& c) {
  LintReport r;
  const dfg::Dfg& g = s.graph();
  const int cs = s.numSteps();

  // -- SCH001..SCH003: completeness and range -------------------------------
  for (const dfg::Node& n : g.nodes()) {
    if (!dfg::isSchedulable(n.kind)) continue;
    if (!s.isPlaced(n.id)) {
      r.add(diag(kSchedUnplaced, EntityKind::Node, at(n.name),
                 util::format("op '%s' is not scheduled", n.name.c_str()),
                 "place every schedulable operation"));
      continue;
    }
    const Placement& p = s.at(n.id);
    if (p.step < 1 || p.step + n.cycles - 1 > cs)
      r.add(diag(kSchedOutOfRange, EntityKind::Node,
                 at(n.name, p.step),
                 util::format("op '%s' occupies steps [%d,%d] outside [1,%d]",
                              n.name.c_str(), p.step, p.step + n.cycles - 1, cs)));
    if (p.column < 1)
      r.add(diag(kSchedBadColumn, EntityKind::Node,
                 at(n.name, p.step, p.column),
                 util::format("op '%s' has invalid column %d", n.name.c_str(),
                              p.column)));
  }
  if (!r.empty()) return r;  // later checks assume complete placement

  // -- SCH004..SCH006: precedence (with chaining) ---------------------------
  // chainOff[n] = combinational offset (ns) at which n's result is ready
  // within its own step, or 0 when the value crosses a step boundary.
  std::map<NodeId, double> chainOff;
  const auto order = g.topoOrder();
  for (NodeId id : *order) {
    const dfg::Node& n = g.node(id);
    if (!dfg::isSchedulable(n.kind)) continue;
    const int start = s.stepOf(id);
    double startOff = 0.0;
    for (NodeId p : g.opPreds(id)) {
      const dfg::Node& pn = g.node(p);
      const int pEnd = s.stepOf(p) + pn.cycles - 1;
      if (pEnd < start) continue;  // value registered before we start: fine
      // Predecessor finishes in our start step or later.
      if (pEnd > start || pn.cycles > 1 || !c.allowChaining) {
        r.add(diag(kSchedPrecedence, EntityKind::Node,
                   at(n.name, start, -1, pn.name),
                   util::format("precedence violated: '%s'@%d depends on '%s' "
                                "finishing step %d",
                                n.name.c_str(), start, pn.name.c_str(), pEnd),
                   "move the successor to a later step"));
        continue;
      }
      // Same-step single-cycle predecessor: legal only as a chain.
      startOff = std::max(startOff, chainOff[p]);
    }
    const double delay = n.effectiveDelayNs();
    if (c.allowChaining && n.cycles == 1) {
      const double fin = startOff + delay;
      if (fin > c.clockNs)
        r.add(diag(kSchedChainOverflow, EntityKind::Node,
                   at(n.name, start),
                   util::format("chaining violated: '%s' finishes %.1fns into "
                                "a %.1fns step",
                                n.name.c_str(), fin, c.clockNs),
                   "lengthen the clock or break the chain across steps"));
      chainOff[id] = fin;
    } else {
      if (startOff > 0.0)
        r.add(diag(kSchedMidStepStart, EntityKind::Node,
                   at(n.name, start),
                   util::format("op '%s' cannot start mid-step (chained input, "
                                "but op is multicycle or chaining is off)",
                                n.name.c_str())));
      chainOff[id] = 0.0;  // multicycle results land on a step boundary
    }
  }

  // -- SCH007: occupancy ----------------------------------------------------
  std::map<std::pair<dfg::FuType, int>, std::vector<NodeId>> byColumn;
  for (const dfg::Node& n : g.nodes()) {
    if (!dfg::isSchedulable(n.kind)) continue;
    byColumn[{dfg::fuTypeOf(n.kind), s.columnOf(n.id)}].push_back(n.id);
  }
  for (const auto& [key, ops] : byColumn) {
    const auto [type, col] = key;
    const bool pipelined = c.pipelinedFus.count(type) > 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      for (std::size_t j = i + 1; j < ops.size(); ++j) {
        const dfg::Node& a = g.node(ops[i]);
        const dfg::Node& b = g.node(ops[j]);
        if (g.mutuallyExclusive(a.id, b.id)) continue;
        bool conflict;
        if (pipelined) {
          // One initiation per step (fold starts mod latency when L > 0).
          auto fold = [&](int st) { return c.latency > 0 ? (st - 1) % c.latency : st; };
          conflict = fold(s.stepOf(a.id)) == fold(s.stepOf(b.id));
        } else {
          conflict = stepsIntersect(occupiedSteps(a, s.at(a.id), c),
                                    occupiedSteps(b, s.at(b.id), c));
        }
        if (conflict)
          r.add(diag(kSchedOccupancy, EntityKind::Fu,
                     at(a.name, s.stepOf(a.id), col, b.name),
                     util::format("occupancy conflict on %s#%d: '%s'@%d vs '%s'@%d",
                                  std::string(dfg::fuTypeName(type)).c_str(), col,
                                  a.name.c_str(), s.stepOf(a.id), b.name.c_str(),
                                  s.stepOf(b.id)),
                     "move one operation to a free column or another step"));
      }
    }
  }

  // -- SCH008: resource limits ----------------------------------------------
  for (const auto& [type, used] : s.fuCount()) {
    auto it = c.fuLimit.find(type);
    if (it != c.fuLimit.end() && used > it->second)
      r.add(diag(kSchedResourceLimit, EntityKind::Fu,
                 at("", -1, used, std::string(dfg::fuTypeName(type))),
                 util::format("resource limit exceeded: %d %s used, %d allowed",
                              used, std::string(dfg::fuTypeName(type)).c_str(),
                              it->second),
                 "relax the limit or allow more control steps"));
  }
  return r;
}

}  // namespace mframe::analysis
