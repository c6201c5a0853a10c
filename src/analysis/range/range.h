// Interval abstract interpretation over the FSM×datapath product: width and
// overflow safety proofs for shared resources, plus value-driven
// reachability refinement.
//
// MFSA's whole point is aggressive sharing — one ALU, register or output
// line serves many DFG operations — but sharing is only safe when every
// tenant's value fits the line the declarations sized. This analysis solves,
// per controller state, an interval⊗defined lattice for every register
// (PR 4's interval domain, widened at FSM loop heads) over the reachable
// step graph, propagating through ALU opcodes, mux routing and chained
// ALU-output operands. On the fixpoint it proves five obligations:
//
//   WID001  register write truncates (value needs more bits than the
//           register's declared tenants provide)
//   WID002  shared-ALU result exceeds the output line's declared width
//   WID003  operation's inferred range can overflow its declared width=
//   WID004  mux data input selected only in states value analysis proves
//           unreachable
//   WID005  user `.bind` assertion (`assert reg= min= max= [width=]`)
//           violated by the fixpoint
//
// Each finding carries state+step+register provenance and a witness reset
// path. Reachability refinement: a branch edge whose condition interval is
// decided (constant zero: never taken; excludes zero: always taken, so
// unconditional siblings fall) is pruned, the fixpoint re-runs on the
// refined graph, and the PR 7 audit can be replayed on it — AUD false
// positives on value-dead states disappear (auditRefined suppresses AUD001
// on states this analysis proved dead on purpose).
//
// Deterministic: the per-state scan parallelizes over `jobs` workers but
// merges findings in step order and bumps the range.* counters once after
// the merge, so reports and counters are bit-identical for every jobs value.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/audit/audit.h"
#include "analysis/audit/reach.h"
#include "analysis/dataflow/lattice.h"
#include "analysis/diagnostic.h"
#include "analysis/range/assert.h"
#include "rtl/controller.h"
#include "rtl/datapath.h"
#include "rtl/microcode.h"

namespace mframe::analysis::range {

struct RangeOptions {
  int jobs = 1;  ///< workers for the per-state scan (results identical)
  std::vector<RegAssert> asserts;  ///< user assertions (from .bind)
};

/// One register's abstract value in one controller state. `defined` means a
/// value was stored on every path from reset; an undefined register reads as
/// the full word range (garbage), which keeps every width proof sound.
struct RegFact {
  bool defined = false;
  dataflow::Interval val{0, 0};

  bool operator==(const RegFact&) const = default;
};

/// Per-state register facts. `reached` distinguishes the join identity
/// (no path computed yet / state unreachable) from real facts.
struct RangeState {
  bool reached = false;
  std::vector<RegFact> regs;

  bool operator==(const RangeState&) const = default;
};

/// A branch edge the analysis proved untaken, with the deciding interval.
struct PrunedEdge {
  rtl::StepEdge edge;
  std::string reason;  ///< e.g. "cond 'k' is constant 0 at state 2"
};

struct RangeResult {
  LintReport report;  ///< WID findings
  audit::ReachResult reach;    ///< over-approximate (all branch edges taken)
  audit::ReachResult refined;  ///< after pruning decided edges
  rtl::ControllerFsm refinedFsm;  ///< fsm with pruned edges removed
  std::vector<PrunedEdge> pruned;
  /// Final per-state out-facts on the refined graph, indexed by state.
  std::vector<RangeState> values;
  std::uint64_t statesInterpreted = 0;  ///< refined-reachable states walked
  std::uint64_t widenings = 0;          ///< loop-head widenings applied
  std::uint64_t assertsChecked = 0;

  bool clean() const { return report.empty(); }
};

/// Analyze a complete synthesis artifact. Pure apart from the range.*
/// counters (bumped once, post-merge).
RangeResult analyzeDesignRanges(const rtl::Datapath& d,
                                const rtl::ControllerFsm& fsm,
                                const rtl::MicrocodeRom& rom,
                                const RangeOptions& opt = {});

/// Re-run the PR 7 audit on the refined step graph: value-dead states are
/// passed as proven-dead so AUD001 stays quiet about them, and findings
/// that only lived on pruned paths disappear.
audit::AuditResult auditRefined(const RangeResult& r, const rtl::Datapath& d,
                                const rtl::MicrocodeRom& rom,
                                const audit::AuditOptions& opt = {});

/// The `range --json` document: {"schema": 1, "design": ..., "states": N,
/// "reachableStates": M, "refinedReachableStates": K, "prunedEdges": [...],
/// "widenings": W, "assertsChecked": A, "registers": [...], "lint": ...}.
/// `registers` summarizes each register's interval joined over all refined-
/// reachable states where it is defined.
std::string renderRangeJson(const RangeResult& r, const dfg::Dfg& g);

/// One-line human summary.
std::string renderRangeSummary(const RangeResult& r);

}  // namespace mframe::analysis::range
