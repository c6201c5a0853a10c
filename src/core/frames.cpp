#include "core/frames.h"

#include <algorithm>
#include <cmath>

#include "util/strings.h"

namespace mframe::core {

bool fitsNoStep(const dfg::Dfg& g, const sched::Constraints& c, dfg::NodeId n) {
  return c.allowChaining && g.cyclesOf(n) == 1 && g.delayOf(n) > c.clockNs;
}

std::optional<std::string> unschedulableReason(
    const dfg::Dfg& g, const sched::Constraints& c,
    const std::set<dfg::FuType>& pipelined) {
  for (const auto& [type, limit] : c.fuLimit) {
    const std::size_t uses = g.countOfType(type);
    if (limit < 1 && uses > 0) {
      const std::string name(dfg::fuTypeName(type));
      return util::format("%s budget %d leaves no unit for %zu %s operation(s)",
                          name.c_str(), limit, uses, name.c_str());
    }
  }
  if (!c.allowChaining && c.latency <= 0) return std::nullopt;  // no op to scan
  for (dfg::NodeId id = 0; id < g.size(); ++id) {
    if (!dfg::isSchedulable(g.kindOf(id))) continue;
    const dfg::FuType type = dfg::fuTypeOf(g.kindOf(id));
    if (overlapsOwnInitiation(g.cyclesOf(id), c.latency,
                              pipelined.count(type) > 0))
      return util::format(
          "'%s' overlaps its own next initiation: its %d cycles exceed the "
          "latency %d on an unpipelined %s",
          g.node(id).name.c_str(), g.cyclesOf(id), c.latency,
          std::string(dfg::fuTypeName(type)).c_str());
    if (fitsNoStep(g, c, id))
      return util::format(
          "'%s' fits no control step: its %g ns delay exceeds the %g ns clock",
          g.node(id).name.c_str(), g.delayOf(id), c.clockNs);
  }
  return std::nullopt;
}

std::vector<ColumnBudget> columnBudgets(const dfg::Dfg& g,
                                        const sched::Constraints& c,
                                        const sched::TimeFrames& tf, int cs,
                                        bool balanced) {
  std::vector<ColumnBudget> budgets(dfg::kNumFuTypes);
  for (std::size_t t = 0; t < dfg::kNumFuTypes; ++t) {
    const auto ft = static_cast<dfg::FuType>(t);
    ColumnBudget& b = budgets[t];
    if (auto lim = c.fuLimit.find(ft); lim != c.fuLimit.end()) {
      b.max = lim->second;
      b.userLimited = true;
    } else {
      b.max = std::max(1, tf.upperBound(ft));
    }
    if (balanced) {
      const auto nOps = static_cast<int>(g.countOfType(ft));
      const int even =
          static_cast<int>(std::ceil(static_cast<double>(nOps) / cs));
      // Not std::clamp: a type the graph does not use may have a 0 budget.
      b.current = std::min(std::max(even, 1), b.max);
    } else {
      b.current = b.max;
    }
  }
  return budgets;
}

FrameCalculator::DepCheck FrameCalculator::depOk(const sched::Schedule& s,
                                                 dfg::NodeId n, int step) const {
  const int cycles = g_->cyclesOf(n);
  DepCheck out;
  double off = 0.0;
  for (dfg::NodeId p : g_->opPreds(n)) {
    if (!s.isPlaced(p)) continue;  // scheduled later; ASAP already bounds us
    const int pEnd = s.stepOf(p) + g_->cyclesOf(p) - 1;
    if (pEnd < step) continue;
    if (pEnd > step) return {};  // predecessor still busy after our start
    // Predecessor finishes exactly in our step: only a chain can save this.
    if (!c_->allowChaining || g_->cyclesOf(p) > 1 || cycles > 1) return {};
    off = std::max(off, chainOffsetOf(p));
  }
  if (c_->allowChaining && cycles == 1) {
    if (off + g_->delayOf(n) > c_->clockNs) return {};
  } else if (off > 0.0) {
    return {};  // multicycle ops start on step boundaries
  }
  out.ok = true;
  out.startOffsetNs = off;
  return out;
}

FrameCalculator::DepWindow FrameCalculator::depWindow(const sched::Schedule& s,
                                                      dfg::NodeId n) const {
  const int cycles = g_->cyclesOf(n);
  DepWindow w;
  bool boundaryChainable = true;  // every pred ending at the boundary chains
  for (dfg::NodeId p : g_->opPreds(n)) {
    if (!s.isPlaced(p)) continue;
    const int pEnd = s.stepOf(p) + g_->cyclesOf(p) - 1;
    if (pEnd > w.boundaryStep) {
      w.boundaryStep = pEnd;
      w.boundaryOff = 0.0;
      boundaryChainable = true;
    }
    if (pEnd == w.boundaryStep) {
      if (g_->cyclesOf(p) > 1)
        boundaryChainable = false;
      else
        w.boundaryOff = std::max(w.boundaryOff, chainOffsetOf(p));
    }
  }
  // Above the boundary no pred constrains the start; only an op whose own
  // delay never fits the clock stays infeasible.
  w.aboveOk = !fitsNoStep(*g_, *c_, n);
  if (w.boundaryStep == 0) {
    // No placed predecessor: there is no boundary case, every step behaves
    // like the "above" zone.
    w.boundaryOk = false;
    return w;
  }
  w.boundaryOk = c_->allowChaining && boundaryChainable && cycles == 1 &&
                 w.boundaryOff + g_->delayOf(n) <= c_->clockNs;
  if (!w.boundaryOk) w.boundaryOff = 0.0;
  return w;
}

void FrameCalculator::recordPlacement(const sched::Schedule& s, dfg::NodeId n,
                                      int step) {
  const DepCheck d = depOk(s, n, step);
  if (n >= chainOff_.size()) chainOff_.resize(g_->size(), 0.0);
  if (c_->allowChaining && g_->cyclesOf(n) == 1)
    chainOff_[n] = d.startOffsetNs + g_->delayOf(n);
  else
    chainOff_[n] = 0.0;  // result lands on a step boundary
}

FrameCalculator::Frames FrameCalculator::compute(const sched::Schedule& s,
                                                 const ColumnOccupancy& occ,
                                                 dfg::NodeId n, int currentCols,
                                                 int maxCols) const {
  Frames f;
  f.pfStepLo = tf_->asap(n);
  f.pfStepHi = tf_->alap(n);
  f.pfColLo = 1;
  f.pfColHi = maxCols;
  f.rfColLo = currentCols + 1;

  // FF lower bound from placed predecessors, before the chaining relaxation:
  // "exclude those positions whose control steps are less than or equal to
  // the predecessors' control step".
  int below = f.pfStepLo;
  for (dfg::NodeId p : g_->opPreds(n))
    if (s.isPlaced(p))
      below = std::max(below, s.stepOf(p) + g_->node(p).cycles - 1 +
                                  (c_->allowChaining ? 0 : 1));
  f.ffBelowStep = below;

  const int colHi = std::min(currentCols, maxCols);
  for (int step = f.pfStepLo; step <= f.pfStepHi; ++step) {
    if (!depOk(s, n, step).ok) continue;
    for (int col = 1; col <= colHi; ++col)
      if (occ.canPlace(n, col, step)) f.moveFrame.push_back({step, col});
  }
  return f;
}

}  // namespace mframe::core
