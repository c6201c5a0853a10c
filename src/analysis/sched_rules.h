// Schedule rule family: the independent re-check of every schedule the
// library produces (MFS, MFSA, the baselines, the pipelining transforms,
// tune's stitched schedules). Emits one Diagnostic per violation —
// completeness, range, precedence (with chaining), occupancy (multicycle,
// pipelined, latency-folded) and resource limits — with the offending node,
// step and FU column attached. An empty report means the schedule is valid.
#pragma once

#include "analysis/diagnostic.h"
#include "sched/schedule.h"

namespace mframe::analysis {

/// Run every schedule rule over `s` against `c`. When completeness/range
/// rules fire, the remaining passes are skipped (they assume a complete
/// placement).
LintReport lintSchedule(const sched::Schedule& s, const sched::Constraints& c);

}  // namespace mframe::analysis
