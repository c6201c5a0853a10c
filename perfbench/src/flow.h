// One design's trip through libmframe's public calls, and the output check
// that judges it without trusting the code under test.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/audit/audit.h"
#include "analysis/criticality/tune.h"
#include "analysis/diagnostic.h"
#include "analysis/range/range.h"
#include "analysis/timing/sta.h"
#include "core/mfsa.h"
#include "rtl/controller.h"
#include "rtl/microcode.h"
#include "sched/timeframes.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

/// The public calls a design pass makes, in flow order. Each is timed on
/// every pass, and is a span "<name>" and a per-layer metric "<name>_ms".
enum Stage : int {
  kParse, kLint, kTimeframes, kMfsa, kVerify, kController, kMicrocode,
  kAudit, kRange, kProve, kSta, kVerilog, kTune, kNumStages
};
inline constexpr const char* kStageNames[kNumStages] = {
    "dfg.parse",   "analysis.lint",  "sched.timeframes", "core.mfsa",
    "rtl.verify",  "rtl.controller", "rtl.microcode",    "audit.audit",
    "range.range", "validate.prove", "timing.sta",       "rtl.verilog",
    "criticality.tune"};

/// Milliseconds each stage of one design pass took (0 for a stage not run).
using StageMs = std::array<double, kNumStages>;

/// Everything one design pass produced. Kept alive until the design has been
/// checked, so freeing it is never part of a timed flow.
struct Outcome {
  std::string failure;  ///< set when a stage could not go on
  StageMs stageMs{};
  mframe::dfg::Dfg graph;
  mframe::analysis::LintReport lint;
  std::optional<mframe::sched::TimeFrames> frames;
  mframe::core::MfsaResult mfsa;
  std::vector<std::string> verify;
  mframe::rtl::ControllerFsm fsm;
  mframe::rtl::MicrocodeRom rom;
  mframe::analysis::audit::AuditResult audit;
  mframe::analysis::range::RangeResult range;
  mframe::analysis::LintReport proof;
  mframe::analysis::timing::TimingReport sta;
  std::string verilog;
  std::optional<mframe::analysis::criticality::TuneResult> tune;
};

/// The twelve-stage flow: parse, lint, time frames, MFSA at the critical
/// path + 1, verify, controller, microcode, audit, range, prove, STA and
/// Verilog, each called once. `spans` is null on untraced passes.
Outcome synthesize(const Design& d, const mframe::celllib::CellLibrary& lib,
                   Spans* spans, int pass);

/// Parse, then the tune loop at the tune goldens' settings: 200 ns clock,
/// chaining, an iteration budget of 4 and one job.
Outcome tune(const Design& d, const mframe::celllib::CellLibrary& lib,
             Spans* spans, int pass);

/// Quality of results and sizes of one design's output, or summed over a
/// pass's designs (the clock then being the slowest design's).
struct Qor {
  double areaUm2 = 0;
  int steps = 0;
  double minClockNs = 0;  ///< the shortest clock every endpoint meets
  int alus = 0;
  int regs = 0;
  int muxInputs = 0;
  int fsmStates = 0;      ///< control steps plus the reset state
  std::size_t verilogBytes = 0;

  Qor& operator+=(const Qor& q);
  bool operator==(const Qor&) const = default;
};

struct Verdict {
  std::string failure;  ///< empty when the design passed every check
  Qor qor;
};

/// The output check. Requires the flow's checkers to be clean (verify,
/// audit, range, prove; for tune: converged with non-negative slack), then
/// simulates the produced RTL with sim::simulateRtl on vectors drawn from
/// `seed` and compares every output with sim::evalDfg on the generator's
/// reference graph.
Verdict check(const Design& d, const Outcome& o, std::uint32_t seed);

}  // namespace perfbench
