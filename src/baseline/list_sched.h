// Resource-constrained list scheduling — the classic baseline ([4] in the
// paper): operations become ready when their predecessors finish and are
// issued in priority (mobility) order, limited by the available units per
// type; the schedule grows until all operations are placed.
#pragma once

#include <string>

#include "sched/priority.h"
#include "sched/schedule.h"

namespace mframe::baseline {

struct ListSchedResult {
  bool feasible = false;
  std::string error;
  sched::Schedule schedule;
  int steps = 0;
};

/// Schedule under c.fuLimit (types without a limit get 1 unit). Places
/// through core::Grid, so multicycle operations, mutual exclusion,
/// pipelined units and latency folding follow MFS's occupancy rule;
/// chaining is not part of this baseline. Fails at once when
/// core::unschedulableReason names a reason.
ListSchedResult runListScheduling(const dfg::Dfg& g, const sched::Constraints& c);

}  // namespace mframe::baseline
