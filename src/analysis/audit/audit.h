// Reference-free RTL audit: symbolic FSM reachability plus datapath-safety
// static analyses over the reachable step graph.
//
// `prove` (the translation validator) needs the source DFG and symbolically
// executes the whole design; the audit certifies the RTL is safe *on its own
// terms* with nothing but the datapath, controller and ROM in hand:
//
//   AUD001  unreachable microcode row / dead FSM state
//   AUD002  register read-before-write on a reachable path
//   AUD003  multi-driver contention on a shared output line in one step
//   AUD004  mux data input never selected on any reachable path
//   AUD005  two values latched into one register in the same step
//   AUD006  an undefined (X) value can reach a primary-output register
//
// Reachability treats branches symbolically (every out-edge taken), so the
// reachable set over-approximates every concrete run. The definedness facts
// behind AUD002/AUD006 come from a must-defined forward dataflow (meet =
// intersection over predecessor states) solved with the PR 4 monotone
// worklist engine; register cleanliness ("written only by ops whose operand
// chains are themselves defined") rides the same fixpoint, which is what
// lets AUD006 trace an X from a skipped write all the way to an output.
//
// Diagnostics flow through the standard Diagnostic/LintReport machinery with
// full provenance chains (reset path, issue, port, source, register/bus), so
// text/JSON rendering and --fail-on gating come for free. Deterministic: the
// per-step scan parallelizes over `jobs` worker threads but merges findings
// in step order and bumps the audit.* counters once after the merge, so
// reports and counters are bit-identical for every jobs value.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/audit/reach.h"
#include "analysis/diagnostic.h"
#include "rtl/controller.h"
#include "rtl/datapath.h"
#include "rtl/microcode.h"
#include "rtl/step_index.h"

namespace mframe::analysis::audit {

struct AuditOptions {
  int jobs = 1;  ///< worker threads for the per-step scan (results identical)
  /// States proven unreachable by value analysis (range refinement), indexed
  /// by state; AUD001 is suppressed for them — they are dead by proof, not
  /// by a wiring mistake. Empty = none.
  std::vector<char> provenDead;
};

struct AuditResult {
  LintReport report;
  ReachResult reach;
  std::uint64_t rbwChecks = 0;  ///< register-operand definedness checks

  bool clean() const { return report.empty(); }
};

/// Audit a complete synthesis artifact. Pure: no DFG reference semantics are
/// consulted beyond node names/arities for rendering and operand wiring.
AuditResult auditDesign(const rtl::Datapath& d, const rtl::ControllerFsm& fsm,
                        const rtl::MicrocodeRom& rom,
                        const AuditOptions& opt = {});

/// The `audit --json` document: {"schema": 1, "design": ..., "states": N,
/// "reachableStates": M, "rbwChecks": K, "lint": <schema-2 lint doc>}.
std::string renderAuditJson(const AuditResult& r, const dfg::Dfg& g);

/// One-line human summary ("7/7 states reachable, 14 read checks, clean").
std::string renderAuditSummary(const AuditResult& r);

/// The provenance line naming a reset path ("reachable path: 0 -> 1 -> 3"),
/// shared by the AUD and WID findings.
std::string formatPath(const std::vector<int>& path);

/// The mux selects exercised on the reachable states of `reach`:
/// used[alu][0 = left / 1 = right][select]. AUD004 reports the selects no
/// state uses; WID004 compares two reachability views of them.
std::vector<std::array<std::vector<char>, 2>> usedSelects(
    const rtl::StepIndex& idx, const ReachResult& reach);

}  // namespace mframe::analysis::audit
