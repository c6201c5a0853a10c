// Static timing analysis over a synthesized datapath — the TIM family.
//
// The schedulers budget chaining with per-node combinational delays; this
// analyzer is the independent auditor. It walks every control step of a
// bound datapath and accumulates arrival times along the physical route a
// value actually takes: out of a register (clk-to-q), across a shared line
// (bus), through the port multiplexer tree, through the ALU the operation
// is bound to (the cell library's module delay, not the scheduler's
// assumption), across the line to the next consumer — chained consumers
// extend the same combinational path — and finally into the destination
// register (setup). Every register-latched endpoint gets a slack against
// the clock period. The walk computes numbers only; the full mux → ALU →
// bus → register provenance is formatted for the worst endpoint and for
// each finding:
//
//   TIM001  single-cycle register-to-register path exceeds the clock period
//   TIM002  chained combinational path with no --clock constraint to audit
//   TIM003  multicycle operation does not fit its allocated control steps
//   TIM004  path consumes almost the whole period (fragile slack)
#pragma once

#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "rtl/datapath.h"

namespace mframe::analysis::timing {

/// Interconnect/storage overheads the cell library does not model. The
/// values are small relative to the ncr-like ALU delays, matching the
/// late-1980s standard-cell flavor of the rest of the repository.
struct DelayModel {
  double muxLevelNs = 2.0;   ///< one 2:1 stage of a port mux tree
  double busNs = 1.5;        ///< one shared-line hop (reg/ALU/pad -> mux)
  double regClkToQNs = 1.0;  ///< register clock-to-output
  double setupNs = 1.0;      ///< register setup before the latching edge
};

/// The one delay model STA, criticality and tune's clock derating share.
inline constexpr DelayModel kDelayModel{};

/// 2:1 stages of a tree mux with `inputs` data inputs (0 for a plain wire):
/// the mux depth STA times and criticality's observed delay counts.
int muxLevels(std::size_t inputs);

struct TimingOptions {
  double clockNs = 100.0;  ///< control-step period to audit against
  bool clockSet = false;   ///< false: no user constraint (TIM002 territory)
};

/// Timing of one register-latched endpoint (one operation's result).
struct EndpointTiming {
  dfg::NodeId op = dfg::kNoNode;
  int step = 0;         ///< control step of the latching edge (end step)
  int alu = -1;         ///< executing ALU instance
  double arrivalNs = 0; ///< data-valid time at the register, incl. setup
  double requiredNs = 0;///< cycles * clockNs
  double slackNs = 0;   ///< requiredNs - arrivalNs
  int chainDepth = 1;   ///< ALUs traversed combinationally on the worst path
  bool latched = false; ///< result is stored in a register
};

struct TimingReport {
  double clockNs = 0;
  bool clockSet = false;
  std::vector<EndpointTiming> endpoints;  ///< latched endpoints, by op id
  double worstSlackNs = 0;
  dfg::NodeId worstOp = dfg::kNoNode;     ///< endpoint with the worst slack
  /// worstOp's path, outermost first: source register/input, bus hops, mux
  /// trees, ALUs, destination register. Each TIM diagnostic carries its own
  /// endpoint's path as provenance.
  std::vector<std::string> criticalPath;
  int maxChainDepth = 1;
  LintReport diagnostics;                 ///< the TIM findings

  std::string toString(const dfg::Dfg& g) const;
};

/// Run STA over a complete datapath (as produced by buildDatapath /
/// runMfsa). Deterministic: endpoints and diagnostics are emitted in
/// ascending operation-id order.
TimingReport analyzeTiming(const rtl::Datapath& d,
                           const TimingOptions& opts = {});

}  // namespace mframe::analysis::timing
