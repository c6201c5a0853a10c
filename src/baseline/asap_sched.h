// ASAP scheduling — the naive baseline ("the FACET system used ASAP
// schedule", Section 1): every operation starts at its earliest legal step.
// Useful to quantify MFS's balance: ASAP piles operations into the early
// steps, so its FU demand equals the ASAP concurrency peak, typically far
// above MFS's ceil(N/cs).
#pragma once

#include <string>

#include "sched/schedule.h"

namespace mframe::baseline {

struct AsapResult {
  bool feasible = false;
  std::string error;
  sched::Schedule schedule;
  int steps = 0;
};

/// Place every operation at its ASAP step, assigning columns first-free per
/// type through core::Grid, MFS's occupancy rule (multicycle ops, mutual
/// exclusion, pipelined units and latency folding; chaining honored when
/// c.allowChaining is set — dependent ops stack in a step until the clock
/// budget runs out by construction of the ASAP frames). Fails at once when
/// core::unschedulableReason names a reason.
AsapResult runAsap(const dfg::Dfg& g, const sched::Constraints& c);

}  // namespace mframe::baseline
