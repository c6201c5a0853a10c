// Criticality static analysis — the fusion pass behind `mframe tune`.
//
// The PR 4 analyzers each see one face of a timing problem: the STA knows
// which register-latched endpoints miss the clock and the physical route
// (mux -> ALU -> bus -> register) that makes them late, the schedule slack
// analysis knows which operations have no freedom to move, and the dataflow
// passes know which operations are foldable or dead weight. This pass fuses
// all three into a single per-operation *criticality score*: a backward
// propagation (one sweep of the dataflow engine) from the violating
// endpoints toward their transitive producers, decaying with distance and
// boosted where the schedule or the dataflow facts say an op is pinned.
//
// The score answers the question the tune loop asks: "which operations are
// worth re-scheduling?" — the ranked list seeds the cone extractor and
// orders the cone scheduler's priority hint.
#pragma once

#include <string>
#include <vector>

#include "analysis/dataflow/analyze.h"
#include "analysis/timing/sta.h"
#include "rtl/datapath.h"
#include "sched/slack.h"

namespace mframe::analysis::criticality {

/// Per-operation criticality over the full graph of a scheduled datapath.
struct CriticalityResult {
  /// Score per node (indexed by NodeId; non-operations stay 0). Seeds start
  /// at 1 + min(1, -slackNs/clockNs) in (1, 2], normalized by the STA's
  /// clock; propagated scores decay by 0.9 per hop; schedule-critical ops
  /// get +0.05, OPT001/OPT002 findings +0.02.
  std::vector<double> score;
  /// Physically observed per-op delay: bound module delay + worst-port mux
  /// tree + one bus hop, priced with timing::kDelayModel. This is what the scheduler *should* have assumed —
  /// the tune loop re-schedules the cone against these numbers.
  std::vector<double> observedDelayNs;
  /// Violating endpoints (slack < 0), ascending op id — the cone seeds.
  std::vector<dfg::NodeId> seeds;
  /// All operations, descending score, ties broken by ascending id.
  std::vector<dfg::NodeId> ranked;
  /// Operations with score >= 0.5, ascending id.
  std::vector<dfg::NodeId> critical;
  int engineVisits = 0;  ///< dataflow-engine node evaluations

  std::string toString(const dfg::Dfg& g) const;
};

/// Fuse STA endpoints, schedule slack and (optionally) dataflow findings
/// into per-op criticality. `d` must be the datapath `timing` was computed
/// from; `slack` must cover the same schedule. Deterministic for a given
/// input — the propagation is one sweep over quantized scores, so results
/// are bit-identical across runs.
CriticalityResult analyzeCriticality(const rtl::Datapath& d,
                                     const timing::TimingReport& timing,
                                     const sched::SlackReport& slack,
                                     const dataflow::DataflowResult* df = nullptr);

}  // namespace mframe::analysis::criticality
