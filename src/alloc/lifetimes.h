// Signal lifetime analysis over a complete schedule — the raw material for
// register allocation (Section 5.8) and the f_REG term of MFSA.
//
// Conventions: a value produced by an operation finishing in step b is
// written into a register at the end of step b and must stay there through
// the last step in which a *cross-step* consumer reads it. A consumer
// chained in the producer's own step (Section 5.4) reads combinationally and
// does not require storage. Primary inputs are born at step 0 (before the
// first step) and are held in registers; constants are hardwired and never
// stored. Primary outputs must survive to the end of the schedule.
#pragma once

#include <vector>

#include "sched/schedule.h"

namespace mframe::alloc {

struct Lifetime {
  dfg::NodeId producer = dfg::kNoNode;  ///< the signal (its producing node)
  int birth = 0;  ///< step at whose end the value is ready (0 = inputs)
  int death = 0;  ///< last step in which a registered consumer reads it
  bool needsRegister = false;  ///< death > birth (crosses >= 1 step boundary)

  /// Register occupation is the half-open interval (birth, death]; two
  /// signals can share a register iff their intervals do not overlap.
  bool overlaps(const Lifetime& o) const {
    return birth < o.death && o.birth < death;
  }
};

/// One Lifetime per signal-producing node (operations and primary inputs),
/// indexed position-aligned with nothing — use `producer` to match. Only
/// entries with needsRegister participate in allocation.
std::vector<Lifetime> computeLifetimes(const dfg::Dfg& g,
                                       const sched::Schedule& s);

}  // namespace mframe::alloc
