// The design folded into per-state issue/latch tables plus operand wiring —
// the shared substrate of every reader that walks the controller step by
// step: the audit (must-defined/clean, src/analysis/audit/), the range
// analysis (interval fixpoint, src/analysis/range/), the translation
// validator (symbolic execution, src/analysis/validate/) and the Verilog
// writer all iterate the same canonical per-state view, so its
// construction lives here once.
//
// Rows are sorted canonically (issues by ALU then op, latches by register
// then signal) regardless of how .bind edits shuffled the source vectors:
// grouping and report order of every downstream diagnostic depend on it.
#pragma once

#include <vector>

#include "alloc/interconnect.h"
#include "rtl/controller.h"
#include "rtl/datapath.h"

namespace mframe::rtl {

/// Per-state issue and latch tables over a datapath + controller pair. Holds
/// raw pointers into both; the caller keeps them alive.
struct StepIndex {
  const Datapath* d = nullptr;
  const ControllerFsm* fsm = nullptr;
  std::size_t numRegs = 0;
  /// microcode issues per state (index = step, row 0 always empty)
  std::vector<std::vector<const MicroOp*>> issues;
  /// register latches per state (index = step; step 0 = input preloads)
  std::vector<std::vector<const RegLoad*>> loads;

  StepIndex(const Datapath& dp, const ControllerFsm& f);

  /// The wired source carrying `signal` into `op` (either port), or nullptr
  /// when the interconnect never routes that read (RTL009 turf).
  const alloc::Source* wiredSource(dfg::NodeId op, dfg::NodeId signal) const;
};

/// One issue's reads, resolved through the live mux selects: the effective
/// physical source per port (route overrides included). Ports whose select
/// points outside the wiring are skipped — EQV004 owns that defect.
struct PortRead {
  const char* port;  ///< "left" / "right"
  dfg::NodeId signal;
  const alloc::Source* src;
  int select;  ///< effective select (-1: single-source port, no mux)
};

std::vector<PortRead> readsOf(const StepIndex& idx, const MicroOp& m);

}  // namespace mframe::rtl
