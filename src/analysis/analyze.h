// mframe analyze — the one-call orchestrator behind the CLI subcommand and
// the golden-output tests: run the dataflow passes (OPT family) over a
// design, then synthesize a datapath with MFS + column binding and audit it
// with the static timing analyzer (TIM family). The combined LintReport
// renders through the standard diagnostics JSON, so `analyze --json` output
// is byte-identical across runs and machines.
#pragma once

#include <string>

#include "analysis/dataflow/analyze.h"
#include "analysis/timing/sta.h"
#include "celllib/cell_library.h"
#include "sched/schedule.h"
#include "sched/slack.h"

namespace mframe::analysis {

struct AnalyzeOptions {
  /// Synthesize and time the design. When false only the OPT passes run.
  bool runTiming = true;
  /// Control-step budget for the MFS schedule backing the STA; 0 uses the
  /// design's critical path (the tightest chaining-free budget).
  int steps = 0;
  /// Scheduling features for the backing schedule (chaining, resource
  /// limits, clock). `clockSet` records whether the user constrained the
  /// clock — unset clocks keep the 100 ns default for arithmetic but route
  /// chained paths to TIM002 instead of TIM001/TIM004.
  sched::Constraints constraints;
  bool clockSet = false;
};

struct AnalyzeResult {
  dataflow::DataflowResult dataflow;
  bool timingRan = false;
  std::string timingSkip;  ///< why timing did not run ("" when it did)
  timing::TimingReport timing;
  /// Schedule slack over the backing MFS schedule (the tune loop's
  /// convergence witness); valid only when slackRan.
  bool slackRan = false;
  sched::SlackReport slack;
  LintReport report;  ///< OPT + TIM, in that order

  /// Human-readable summary (pass counts, timing table, diagnostics).
  std::string renderText(const dfg::Dfg& g) const;
};

/// Analyze `g` against `lib`. Never throws on infeasible schedules — the
/// timing stage records its skip reason instead, leaving the OPT results
/// intact.
AnalyzeResult analyzeDesign(const dfg::Dfg& g, const celllib::CellLibrary& lib,
                            const AnalyzeOptions& opts);

}  // namespace mframe::analysis
