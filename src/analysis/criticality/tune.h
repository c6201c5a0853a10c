// The `mframe tune` loop: feedback-guided iterative re-scheduling.
//
// analyze/prove are audits; this module makes them a driver. Each iteration:
//
//   1. run the criticality pass over the current datapath (STA endpoints +
//      schedule slack + dataflow findings fused into per-op scores);
//   2. cut the K-hop cone around the violating endpoints (dfg::extractCone),
//      frontier producers pinned as boundary inputs;
//   3. re-schedule the cone under *tightened* constraints — the physically
//      observed per-op delays (module + mux tree + bus hop) against a clock
//      derated by the register overheads the scheduler cannot see — trying
//      several strategies in parallel (explore::parallelFor);
//   4. stitch the best candidate back (sched::stitchSchedule), re-prove the
//      merged datapath with the translation validator, and re-run the STA;
//   5. repeat until worst slack >= 0 or the iteration budget is spent.
//
// Every accepted stitch is closed under `prove` — a stitch the validator
// refutes is rejected and the next-ranked candidate is tried. The tune.*
// trace counters (iterations, coneOps, stitches, rejectedStitches) are
// commutative sums over work that does not depend on the worker count, so
// they are bit-identical across --jobs values.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "analysis/criticality/criticality.h"
#include "analysis/timing/sta.h"
#include "celllib/cell_library.h"
#include "rtl/datapath.h"
#include "sched/schedule.h"
#include "sched/slack.h"

namespace mframe::analysis::criticality {

struct TuneOptions {
  /// Scheduling constraints for the enclosing schedule. clockNs is the
  /// control-step period the STA audits against, always as a user clock
  /// constraint: tune is meaningless without one.
  sched::Constraints constraints;
  int budget = 8;        ///< maximum tune iterations
  int hops = 2;          ///< cone radius around violating endpoints
  int jobs = 1;          ///< worker threads for candidate evaluation
  /// Test hook: applied once to the first accepted candidate schedule
  /// *after* stitch verification but *before* the prove gate — the
  /// prove-rejection tests corrupt a stitch here and require tune to refuse
  /// it and recover.
  std::function<void(sched::Schedule&)> stitchMutatorForTest;
};

/// One accepted iteration of the loop, for reporting.
struct TuneIterationRecord {
  int iteration = 0;
  double worstSlackNs = 0;   ///< after this iteration's stitch
  std::size_t coneOps = 0;   ///< operations in this iteration's cone
  int candidate = -1;        ///< accepted candidate strategy index
  int rejected = 0;          ///< candidates refused this iteration
  int steps = 0;             ///< schedule length after this iteration
};

struct TuneResult {
  bool converged = false;
  std::string error;  ///< why the loop stopped early ("" = budget/converged)
  int iterations = 0;
  double initialWorstSlackNs = 0;
  double worstSlackNs = 0;
  int steps = 0;

  sched::Schedule schedule;     ///< final (possibly stitched) schedule
  rtl::Datapath datapath;       ///< datapath of the final schedule
  timing::TimingReport timing;  ///< STA of the final datapath
  bool slackRan = false;
  sched::SlackReport slack;     ///< slack witness of the final schedule
  std::vector<TuneIterationRecord> trail;

  std::string renderText(const dfg::Dfg& g) const;
  /// {"schema": 1, "design": ..., "converged": ..., "trail": [...],
  ///  "slack": {...}} — deterministic for a given design and options.
  std::string renderJson(const dfg::Dfg& g) const;
};

/// Run the tune loop on `g` against `lib`. Never throws on infeasible or
/// unprovable candidates — the result records why tuning stopped.
TuneResult tuneDesign(const dfg::Dfg& g, const celllib::CellLibrary& lib,
                      const TuneOptions& opt);

}  // namespace mframe::analysis::criticality
