// Force-directed scheduling (Paulin & Knight, HAL — reference [6] of the
// paper): the classic time-constrained baseline MFS is compared against.
// Builds type distribution graphs over the operations' time frames, then
// repeatedly fixes the (operation, step) assignment with the lowest total
// force (self force plus implied predecessor/successor forces), shrinking
// frames as it goes.
#pragma once

#include <string>

#include "sched/schedule.h"

namespace mframe::baseline {

struct FdsResult {
  bool feasible = false;
  std::string error;
  sched::Schedule schedule;  ///< columns assigned greedily per type afterwards
  int steps = 0;
};

/// Time-constrained FDS: c.timeSteps must be >= the critical path. Supports
/// multicycle operations. Columns are assigned through core::Grid, so
/// pipelined units and latency folding constrain the assignment, though the
/// forces ignore them; chaining is outside this baseline. Fails at once when
/// core::unschedulableReason names a reason.
FdsResult runForceDirected(const dfg::Dfg& g, const sched::Constraints& c);

}  // namespace mframe::baseline
