#include "analysis/rules.h"

namespace mframe::analysis {

const std::vector<RuleInfo>& allRules() {
  static const std::vector<RuleInfo> rules = {
      // DFG family: structural well-formedness of the input graph.
      {kDfgParseFailure, "dfg", Severity::Error,
       "design fails to parse or compile"},
      {kDfgDanglingInput, "dfg", Severity::Error,
       "operation references an unknown or out-of-range input signal"},
      {kDfgArityMismatch, "dfg", Severity::Error,
       "operation has the wrong number of inputs for its kind (ops take at most 2)"},
      {kDfgCycle, "dfg", Severity::Error,
       "data dependences form a cycle (the DFG must be a DAG)"},
      {kDfgUnreachableOp, "dfg", Severity::Warning,
       "operation result never reaches a primary output"},
      {kDfgBadCycles, "dfg", Severity::Error,
       "multicycle attribute cycles < 1"},
      {kDfgBadDelayOverride, "dfg", Severity::Warning,
       "nonsensical chaining-delay override (non-positive, or on a multicycle op)"},
      {kDfgBadBranchPath, "dfg", Severity::Error,
       "malformed branchPath encoding (components must alternate cond/arm pairs)"},
      {kDfgDuplicateName, "dfg", Severity::Error,
       "duplicate or empty signal name"},
      {kDfgDeadLeaf, "dfg", Severity::Warning,
       "Input/Const node has no consumers and is not an output"},
      {kDfgForwardRef, "dfg", Severity::Error,
       "input reference is not older than the node (graph not topological)"},
      {kDfgBadOutputRef, "dfg", Severity::Error,
       "primary output references a nonexistent node"},
      {kDfgBadWidth, "dfg", Severity::Error,
       "declared width outside [1, 64] bits"},
      {kDfgConstWidthOverflow, "dfg", Severity::Error,
       "constant literal does not fit its declared width"},
      // Schedule family: the structured re-implementation of verifySchedule.
      {kSchedParseFailure, "sched", Severity::Error,
       "schedule file fails to parse against the design"},
      {kSchedUnplaced, "sched", Severity::Error,
       "schedulable operation is not placed"},
      {kSchedOutOfRange, "sched", Severity::Error,
       "operation occupies steps outside [1, cs]"},
      {kSchedBadColumn, "sched", Severity::Error,
       "operation has an invalid FU column (< 1)"},
      {kSchedPrecedence, "sched", Severity::Error,
       "successor starts before a predecessor's result is available"},
      {kSchedChainOverflow, "sched", Severity::Error,
       "chained combinational path exceeds the clock period"},
      {kSchedMidStepStart, "sched", Severity::Error,
       "chained input into a multicycle op or with chaining disabled"},
      {kSchedOccupancy, "sched", Severity::Error,
       "two non-exclusive operations occupy one FU instance simultaneously"},
      {kSchedResourceLimit, "sched", Severity::Error,
       "FU instances used exceed the per-type resource limit"},
      // RTL family: structural checks over the allocated datapath.
      {kRtlDoubleBinding, "rtl", Severity::Error,
       "operation bound to more than one ALU"},
      {kRtlNonOpBound, "rtl", Severity::Error,
       "non-operation node bound to an ALU"},
      {kRtlUnsupportedOp, "rtl", Severity::Error,
       "ALU module lacks the capability for a bound operation"},
      {kRtlUnboundOp, "rtl", Severity::Error,
       "operation not bound to any ALU"},
      {kRtlAluOverlap, "rtl", Severity::Error,
       "ALU executes two non-exclusive operations concurrently"},
      {kRtlSelfLoop, "rtl", Severity::Error,
       "style-2 violation: dependent operations share an ALU"},
      {kRtlRegisterOverlap, "rtl", Severity::Error,
       "register holds two signals with overlapping lifetimes"},
      {kRtlMissingRegister, "rtl", Severity::Error,
       "cross-step signal has no register"},
      {kRtlUnconnectedPort, "rtl", Severity::Error,
       "ALU port mux cannot deliver a required operand (unconnected mux input)"},
      {kRtlBusContention, "rtl", Severity::Error,
       "a bus would be driven by multiple sources in one step (plan underprovisioned)"},
      {kRtlBusIdle, "rtl", Severity::Warning,
       "bus is driven by zero sources in every step (plan overprovisioned)"},
      {kRtlBadFieldRef, "rtl", Severity::Error,
       "microcode field references a nonexistent datapath component"},
      {kRtlFieldOverflow, "rtl", Severity::Error,
       "microcode row value does not fit its field width (or shape mismatch)"},
      // EQV family: the symbolic translation validator (mframe prove).
      {kEqvParseFailure, "eqv", Severity::Error,
       "bound-design (.bind) file fails to parse against the design"},
      {kEqvOperandMismatch, "eqv", Severity::Error,
       "operand value arriving at an ALU port differs from the DFG operand"},
      {kEqvRegisterClobber, "eqv", Severity::Error,
       "register overwritten while its previous value is still live"},
      {kEqvOutputUnreachable, "eqv", Severity::Error,
       "primary output register never written or holds the wrong final value"},
      {kEqvMuxRoute, "eqv", Severity::Error,
       "mux select routes a source inconsistent with the operand binding"},
      {kEqvStepDisagreement, "eqv", Severity::Error,
       "microcode issues or latches in a step disagreeing with the schedule"},
      // LIB family: cell-library sanity.
      {kLibParseFailure, "lib", Severity::Error,
       "cell-library file fails to parse"},
      {kLibDuplicateCell, "lib", Severity::Error,
       "duplicate cell name (later definition silently ignored)"},
      {kLibBadArea, "lib", Severity::Error,
       "cell area is not positive"},
      {kLibBadDelay, "lib", Severity::Warning,
       "cell delay is not positive (breaks chaining-budget arithmetic)"},
      {kLibMissingCell, "lib", Severity::Error,
       "a required operation has no implementing cell"},
      {kLibBadStages, "lib", Severity::Error,
       "multicycle/pipelined cell declares fewer than 1 stage"},
      {kLibMuxTable, "lib", Severity::Warning,
       "multiplexer cost table decreases with input count"},
      // OPT family: optimization opportunities found by the dataflow passes.
      {kOptFoldableConst, "opt", Severity::Note,
       "operation computes a compile-time constant (foldable)"},
      {kOptDeadOp, "opt", Severity::Note,
       "operation result is dead (removable without changing any output)"},
      {kOptDuplicateExpr, "opt", Severity::Note,
       "operation recomputes an expression another operation already produces"},
      {kOptOverWideOp, "opt", Severity::Note,
       "operation is wider than its inferred value range requires"},
      // TIM family: static timing analysis of a synthesized datapath.
      {kTimClockViolation, "tim", Severity::Error,
       "register-to-register path exceeds the clock period"},
      {kTimUnconstrainedChain, "tim", Severity::Warning,
       "chained combinational path with no clock constraint to audit against"},
      {kTimMulticycleUnderAlloc, "tim", Severity::Error,
       "multicycle operation does not fit its allocated control steps"},
      {kTimNearCritical, "tim", Severity::Warning,
       "path consumes almost the whole clock period (fragile slack)"},
      // AUD family: reference-free reachability + datapath-safety audit.
      {kAudUnreachable, "aud", Severity::Error,
       "microcode row / FSM state has no path from reset (dead control state)"},
      {kAudReadBeforeWrite, "aud", Severity::Error,
       "register read on a reachable path before any write reaches it"},
      {kAudBusContention, "aud", Severity::Error,
       "shared output line driven by multiple issues in one reachable step"},
      {kAudDeadMuxInput, "aud", Severity::Warning,
       "mux data input never selected on any reachable path"},
      {kAudWriteClobber, "aud", Severity::Error,
       "two values latched into one register in the same reachable step"},
      {kAudXPropagation, "aud", Severity::Error,
       "undefined (X) value can reach a primary output register"},
      // WID family: interval abstract interpretation over the FSM×datapath
      // product (mframe range).
      {kWidTruncatingWrite, "wid", Severity::Error,
       "register write truncates: value range needs more bits than the "
       "register's declared tenants provide"},
      {kWidSharedLineOverflow, "wid", Severity::Error,
       "shared ALU output line carries a result wider than the line's "
       "declared tenants provide"},
      {kWidDeclaredWidthOverflow, "wid", Severity::Warning,
       "operation's inferred value range can overflow its declared width"},
      {kWidValueDeadMuxInput, "wid", Severity::Warning,
       "mux data input only selected in states value analysis proves "
       "unreachable"},
      {kWidAssertViolated, "wid", Severity::Error,
       "user range assertion violated by the interval fixpoint"},
  };
  return rules;
}

const RuleInfo* findRule(std::string_view id) {
  for (const RuleInfo& r : allRules())
    if (r.id == id) return &r;
  return nullptr;
}

namespace {

/// Leading alphabetic part of a rule id ("TIM001" -> "TIM").
std::string_view idPrefix(std::string_view id) {
  std::size_t n = 0;
  while (n < id.size() && (id[n] < '0' || id[n] > '9')) ++n;
  return id.substr(0, n);
}

}  // namespace

const std::vector<std::string_view>& ruleFamilyPrefixes() {
  static const std::vector<std::string_view> prefixes = [] {
    std::vector<std::string_view> out;
    for (const RuleInfo& r : allRules()) {
      const std::string_view p = idPrefix(r.id);
      if (out.empty() || out.back() != p) out.push_back(p);
    }
    return out;
  }();
  return prefixes;
}

bool isRuleFamilyPrefix(std::string_view prefix) {
  for (std::string_view p : ruleFamilyPrefixes())
    if (p == prefix) return true;
  return false;
}

Diagnostic diag(std::string_view rule, EntityKind entity, Location loc,
                std::string message, std::string fixit) {
  Diagnostic d;
  d.rule = std::string(rule);
  d.severity = findRule(rule)->severity;
  d.entity = entity;
  d.loc = std::move(loc);
  d.message = std::move(message);
  d.fixit = std::move(fixit);
  return d;
}

Location at(std::string node, int step, int unit, std::string detail) {
  Location l;
  l.node = std::move(node);
  l.step = step;
  l.unit = unit;
  l.detail = std::move(detail);
  return l;
}

}  // namespace mframe::analysis
