#include "core/mfs.h"

#include <algorithm>
#include <memory>

#include "core/frames.h"
#include "core/grid.h"
#include "sched/timeframes.h"
#include "trace/trace.h"
#include "util/strings.h"

namespace mframe::core {

namespace {

using dfg::FuType;
using dfg::NodeId;

}  // namespace

std::optional<std::vector<NodeId>> topoConsistentOrder(
    const dfg::Dfg& g, const std::vector<NodeId>& priority,
    std::string* error) {
  std::vector<NodeId> out;
  out.reserve(priority.size());
  std::vector<bool> taken(g.size(), false);
  // Un-emitted operation predecessors per node (duplicate operands counted
  // twice, mirroring the duplicate CSR edges): a node is ready exactly when
  // its count reaches zero. Replaces the per-visit O(preds) emitted[] walk.
  std::vector<int> unmet(g.size(), 0);
  for (const dfg::Node& n : g.nodes())
    unmet[n.id] = static_cast<int>(g.opPreds(n.id).size());

  // Sweep the not-yet-taken suffix in priority order, compacting it in
  // place, until the list drains. Readiness is evaluated at visit time, so
  // a node emitted earlier in the same sweep unblocks its successors within
  // that sweep — the exact semantics of the original full-list rescan,
  // without the O(n) passes over already-taken entries.
  std::vector<NodeId> remaining = priority;
  while (out.size() < priority.size()) {
    std::size_t kept = 0;
    bool progress = false;
    for (NodeId id : remaining) {
      if (taken[id]) continue;  // duplicate occurrence in the list
      if (unmet[id] != 0) {
        remaining[kept++] = id;
        continue;
      }
      out.push_back(id);
      taken[id] = true;
      progress = true;
      for (NodeId sc : g.opSuccs(id)) --unmet[sc];
    }
    remaining.resize(kept);
    if (!progress) {
      // Stuck: some listed operation waits on a predecessor that is never
      // emitted (missing from the list, or part of a cycle). Returning the
      // truncated order would silently drop operations downstream.
      if (error && !remaining.empty()) {
        *error = util::format(
            "inconsistent priority order: '%s' waits on a predecessor "
            "missing from the list (or the graph has a cycle)",
            g.node(remaining.front()).name.c_str());
      }
      return std::nullopt;
    }
  }
  return out;
}

MfsResult runMfs(const dfg::Dfg& g, const MfsOptions& opt) {
  const trace::Span span("mfs");
  MfsResult res;
  if (auto err = g.validate()) {
    res.error = "invalid DFG: " + *err;
    return res;
  }
  const auto ops = g.operations();
  if (ops.empty()) {
    res.feasible = true;
    res.schedule = sched::Schedule(g);
    res.steps = 0;
    return res;
  }
  // One graph snapshot per run, shared by every placement attempt — a fresh
  // Schedule(g) per attempt deep-copied the whole graph on each restart.
  const auto snap = std::make_shared<const dfg::Dfg>(g);

  const bool timeMode = opt.mode == MfsLiapunov::Mode::TimeConstrained;
  sched::Constraints c = opt.constraints;

  // Resource mode: start at the critical path and stretch cs until feasible.
  // Time mode: cs is fixed by the user.
  std::string tfError;
  sched::Constraints probe;  // unconstrained probe to find the critical path
  probe.allowChaining = c.allowChaining;
  probe.clockNs = c.clockNs;
  auto tf0 = computeTimeFrames(g, probe, &tfError);
  if (!tf0) {
    res.error = tfError;
    return res;
  }
  int cs = timeMode ? c.timeSteps : std::max(tf0->criticalSteps(), c.timeSteps);
  if (timeMode && cs < tf0->criticalSteps()) {
    res.error = util::format("time constraint %d below critical path %d", cs,
                             tf0->criticalSteps());
    return res;
  }
  if (cs <= 0) {
    res.error = "time-constrained MFS needs constraints.timeSteps > 0";
    return res;
  }
  // No schedule length or column budget can fix these inputs, so fail
  // before the search instead of walking cs up to kMfsMaxStepsCap.
  if (auto why = unschedulableReason(g, c, c.pipelinedFus)) {
    res.error = *why;
    return res;
  }

  for (; cs <= kMfsMaxStepsCap; ++cs) {
    c.timeSteps = cs;
    auto tf = computeTimeFrames(g, c, &tfError);
    if (!tf) {
      res.error = tfError;
      return res;
    }

    // Step 2: per-type column bounds and initial current_j. Resource mode
    // makes every allowed unit usable at once: the redundant frame is empty
    // and V = cs*x + y discourages new columns.
    std::vector<ColumnBudget> budgets = columnBudgets(g, c, *tf, cs, timeMode);

    std::vector<NodeId> priority =
        sched::priorityOrder(g, *tf, opt.priorityRule);
    if (!opt.priorityHint.empty()) {
      // Hinted ops jump the queue; the rest keep their computed order.
      std::vector<char> hinted(g.size(), 0);
      std::vector<NodeId> merged;
      merged.reserve(priority.size());
      for (NodeId id : opt.priorityHint) {
        if (id >= g.size() || hinted[id] ||
            !dfg::isSchedulable(g.kindOf(id)))
          continue;
        hinted[id] = 1;
        merged.push_back(id);
      }
      for (NodeId id : priority)
        if (!hinted[id]) merged.push_back(id);
      priority = std::move(merged);
    }
    const auto order = topoConsistentOrder(g, priority, &res.error);
    if (!order) return res;

    bool csInfeasible = false;
    while (!csInfeasible) {  // placement attempts at this cs
      // n = Max{max_j} in the time-constrained function; recomputed per
      // attempt because an empty move frame may have grown a bound.
      int columnBound = 1;
      for (const ColumnBudget& b : budgets)
        columnBound = std::max(columnBound, b.max);
      const MfsLiapunov energy(opt.mode, columnBound, cs);

      sched::Schedule s(snap);
      s.setNumSteps(cs);
      Grid grid(g, c);
      FrameCalculator fc(g, c, *tf);
      res.liapunovTrace.clear();

      double v = 0.0;
      std::vector<double> worstOf(g.size(), 0.0);
      for (NodeId id : *order) {
        const auto t = static_cast<std::size_t>(dfg::fuTypeOf(g.kindOf(id)));
        worstOf[id] = energy.worstValue(budgets[t].max, cs);
        v += worstOf[id];
      }
      res.liapunovTrace.push_back(v);

      bool restart = false;
      for (NodeId id : *order) {
        const auto t = static_cast<std::size_t>(dfg::fuTypeOf(g.kindOf(id)));
        const auto& occ = grid.table(static_cast<FuType>(t));
        const int colHi = budgets[t].current;

        // Minimum-energy cell of the move frame; step 0 when it is empty.
        // Both walks visit the frame's cells in increasing energy (see
        // core/liapunov.h), so the first free cell is the minimum.
        int bestStep = 0, bestCol = 0;
        const auto w = fc.depWindow(s, id);
        const int lo = tf->asap(id), hi = tf->alap(id);
        auto take = [&](int step, int col) {
          trace::bump(trace::Counter::LiapunovCellEvals);
          if (!occ.canPlace(id, col, step)) return false;
          bestStep = step;
          bestCol = col;
          return true;
        };
        if (timeMode) {
          // V = x + n*y: earliest step first, then the lowest column.
          for (int step = w.firstStep(lo, hi); step != 0 && bestStep == 0;
               step = w.nextStep(step, hi))
            for (int col = 1; col <= colHi; ++col)
              if (take(step, col)) break;
        } else {
          // V = cs*x + y: lowest column first, then the earliest step.
          for (int col = 1; col <= colHi && bestStep == 0; ++col)
            for (int step = w.firstStep(lo, hi); step != 0;
                 step = w.nextStep(step, hi))
              if (take(step, col)) break;
        }

        if (bestStep == 0) {
          // Empty/occupied move frame: widen current_j and locally
          // reschedule (Section 3.2 step 4). Resource mode has every unit
          // open already, so it tries a longer schedule instead.
          if (!timeMode) {
            csInfeasible = true;
            break;
          }
          if (!budgets[t].widen()) {
            res.error = util::format(
                "no feasible position for '%s' within %d %s units",
                g.node(id).name.c_str(), budgets[t].max,
                std::string(dfg::fuTypeName(static_cast<FuType>(t))).c_str());
            return res;
          }
          ++res.restarts;
          if (res.restarts > kMfsMaxRestarts) {
            res.error = "restart budget exhausted";
            return res;
          }
          restart = true;
          break;
        }

        grid.place(id, bestCol, bestStep);
        s.place(id, bestStep, bestCol);
        fc.recordPlacement(s, id, bestStep);
        trace::bump(trace::Counter::LiapunovUpdates);
        // Each move strictly decreases the energy.
        v -= worstOf[id] - energy.value(bestCol, bestStep);
        res.liapunovTrace.push_back(v);
      }
      if (restart) continue;
      if (csInfeasible) break;

      res.feasible = true;
      res.schedule = std::move(s);
      res.steps = cs;
      res.fuCount = res.schedule.fuCount();
      return res;
    }
    if (timeMode) break;  // fixed cs in time mode; csInfeasible can't happen
  }
  res.error =
      util::format("no feasible schedule within %d steps", kMfsMaxStepsCap);
  return res;
}

}  // namespace mframe::core
