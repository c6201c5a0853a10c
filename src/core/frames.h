// The move-frame machinery of Section 3.2 (step 4): for each operation a
// Primary Frame (PF), Redundant Frame (RF) and Forbidden Frame (FF) are
// derived, and the Move Frame is MF = PF - (RF + FF) minus occupied cells.
//
// FrameCalculator also owns the chaining bookkeeping (Section 5.4): it keeps
// the intra-step combinational offset at which every placed operation's
// result becomes ready, so the forbidden frame can be "changed to allow
// chaining" — a predecessor's own step stays legal when the accumulated
// delay still fits the clock period.
#pragma once

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/grid.h"
#include "sched/schedule.h"
#include "sched/timeframes.h"

namespace mframe::core {

/// Under chaining a single-cycle operation must finish inside the step it
/// starts in, so one whose own delay exceeds the clock period fits no
/// control step: FrameCalculator::depOk refuses it at every step.
bool fitsNoStep(const dfg::Dfg& g, const sched::Constraints& c, dfg::NodeId n);

/// Why no schedule of `g` under `c` exists at any length, or nullopt: an FU
/// type the graph uses with a budget below one unit, an operation of a type
/// outside `pipelined` that overlaps its own next initiation
/// (overlapsOwnInitiation), or an operation that fits no control step.
/// `pipelined` names the FU types the scheduler may run on pipelined units:
/// c.pipelinedFus for MFS and the baselines, the types the cell library has
/// a multi-stage module for in MFSA. Every scheduler checks this once
/// before its search, which otherwise finds it only after exhausting its
/// restart budget or its schedule-length cap, or never.
std::optional<std::string> unschedulableReason(
    const dfg::Dfg& g, const sched::Constraints& c,
    const std::set<dfg::FuType>& pipelined);

/// One FU type's column budget, MFS steps 2-3 (Section 3.2), which MFSA
/// shares (Section 4): the bound max_j on the primary frame's columns and
/// the in-use count current_j that the redundant frame starts after.
/// current_j never exceeds max_j.
struct ColumnBudget {
  int max = 1;               ///< max_j
  int current = 1;           ///< current_j
  bool userLimited = false;  ///< max_j is the user's FU limit

  /// Local rescheduling after an empty move frame (step 4): open one more
  /// column. At max_j the presumed ASAP/ALAP bound was too tight for this
  /// priority order; the paper allows a "presummed big number", so max_j
  /// grows with current_j unless the user set it. At the user's limit
  /// nothing changes and widen() returns false.
  bool widen() {
    if (current < max) {
      ++current;
      return true;
    }
    if (userLimited) return false;
    ++max;
    ++current;
    return true;
  }
};

/// Budgets per FU type (indexed by FuType) for a `cs`-step schedule. max_j
/// is the user's limit in c.fuLimit, else tf.upperBound (at least 1).
/// current_j starts at the balanced ceil(N_j / cs), raised to 1 and then
/// capped at max_j, when `balanced`, else at max_j (every allowed unit
/// usable at once). A user limit of 0 gives a 0 budget.
std::vector<ColumnBudget> columnBudgets(const dfg::Dfg& g,
                                        const sched::Constraints& c,
                                        const sched::TimeFrames& tf, int cs,
                                        bool balanced);

class FrameCalculator {
 public:
  FrameCalculator(const dfg::Dfg& g, const sched::Constraints& c,
                  const sched::TimeFrames& tf)
      : g_(&g), c_(&c), tf_(&tf), chainOff_(g.size(), 0.0) {}

  /// Outcome of the dependency test for starting `n` at `step`.
  struct DepCheck {
    bool ok = false;
    double startOffsetNs = 0.0;  ///< chained start offset within the step
  };

  /// Data-dependency legality of starting `n` at `step` against the placed
  /// predecessors in `s`. Handles the chaining relaxation.
  DepCheck depOk(const sched::Schedule& s, dfg::NodeId n, int step) const;

  /// depOk for every step at once, in one O(preds) pass. depOk(step) is a
  /// three-zone function of the step: always false below the latest placed
  /// predecessor's end step (`boundaryStep`), a single chaining-dependent
  /// verdict exactly at it, and one uniform verdict above it (a chainable
  /// op whose own delay exceeds the clock fails everywhere). The frontier
  /// schedulers use this to find the earliest feasible step without
  /// re-walking the predecessor list per candidate step.
  struct DepWindow {
    int boundaryStep = 0;      ///< latest placed-pred end step (0 = none)
    bool boundaryOk = false;   ///< may start exactly at boundaryStep
    double boundaryOff = 0.0;  ///< chained start offset at boundaryStep
    bool aboveOk = true;       ///< may start at any step > boundaryStep

    /// First dependency-feasible step in [lo, hi]; 0 when none.
    int firstStep(int lo, int hi) const {
      int s;
      if (lo <= boundaryStep) {
        if (boundaryOk)
          s = boundaryStep;
        else if (aboveOk)
          s = boundaryStep + 1;
        else
          return 0;
      } else {
        if (!aboveOk) return 0;
        s = lo;
      }
      return s <= hi ? s : 0;
    }
    /// Dependency-feasible step after `s` (itself feasible); 0 past `hi`.
    int nextStep(int s, int hi) const {
      if (s == boundaryStep && !aboveOk) return 0;
      return s + 1 <= hi ? s + 1 : 0;
    }
    /// The feasible steps from firstStep's `s` on are one run; its last
    /// step: `s` alone when nothing may start above the boundary, else `hi`.
    int lastStep(int s, int hi) const {
      return s == boundaryStep && !aboveOk ? s : hi;
    }
  };
  DepWindow depWindow(const sched::Schedule& s, dfg::NodeId n) const;

  /// Record that `n` was placed at `step` (predecessors must already be
  /// recorded); maintains the chain-offset map.
  void recordPlacement(const sched::Schedule& s, dfg::NodeId n, int step);
  void reset() { chainOff_.assign(g_->size(), 0.0); }

  double chainOffsetOf(dfg::NodeId n) const {
    return n < chainOff_.size() ? chainOff_[n] : 0.0;
  }

  /// The frames of one operation at one scheduling iteration.
  struct Frames {
    int pfStepLo = 0, pfStepHi = 0;  ///< PF vertical extent: [ASAP, ALAP]
    int pfColLo = 1, pfColHi = 0;    ///< PF horizontal extent: [1, max_j]
    int rfColLo = 0;                 ///< RF: columns >= rfColLo (current_j + 1)
    int ffBelowStep = 0;  ///< FF: steps < ffBelowStep blocked by placed preds
                          ///< (before the chaining relaxation)
    std::vector<sched::Placement> moveFrame;  ///< the valid cells, MF
  };

  /// Compute PF/RF/FF/MF for `n` given the partial schedule, the occupancy
  /// table of its FU type, the current number of in-use columns (current_j)
  /// and the column bound (max_j).
  Frames compute(const sched::Schedule& s, const ColumnOccupancy& occ,
                 dfg::NodeId n, int currentCols, int maxCols) const;

 private:
  const dfg::Dfg* g_;
  const sched::Constraints* c_;
  const sched::TimeFrames* tf_;
  std::vector<double> chainOff_;  ///< by node; 0 = step-boundary result
};

}  // namespace mframe::core
