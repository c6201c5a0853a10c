// The lint rule registry: every rule the engine can emit, with its stable
// id, family, default severity and a one-line summary. docs/LINT.md is the
// human-readable catalogue of the same table; tests iterate allRules() to
// guarantee each id has coverage.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/diagnostic.h"
#include "sched/schedule.h"

namespace mframe::analysis {

struct RuleInfo {
  std::string_view id;       ///< stable id, e.g. "DFG003"
  std::string_view family;   ///< "dfg", "sched", "rtl", "eqv", "lib", "opt",
                             ///< "tim", "aud" or "wid"
  Severity severity;         ///< default severity of emissions
  std::string_view summary;  ///< one-line description
};

/// Every registered rule, in id order within family.
const std::vector<RuleInfo>& allRules();

/// Lookup by id; nullptr when unknown.
const RuleInfo* findRule(std::string_view id);

/// The distinct rule-id prefixes ("DFG", "SCH", ..., "AUD"), in registry
/// order — the family tokens `--fail-on` accepts besides exact ids.
const std::vector<std::string_view>& ruleFamilyPrefixes();

/// True when `prefix` is the id-prefix of at least one registered rule
/// (e.g. "TIM" matches TIM001..TIM004). Exact ids do not count as families.
bool isRuleFamilyPrefix(std::string_view prefix);

/// A diagnostic of `rule` at the rule's registered severity — the one
/// builder every checker family emits through.
Diagnostic diag(std::string_view rule, EntityKind entity, Location loc,
                std::string message, std::string fixit = "");

/// A location: offending node name, control step, unit index (FU column,
/// ALU, register, bus or port) and free-form detail; -1 / "" when unknown.
Location at(std::string node, int step = -1, int unit = -1,
            std::string detail = "");

/// One cell an item on a unit occupies: (cell, item index).
using CellUse = std::pair<int, std::size_t>;
/// Two items on one unit, by index; first <= second.
using ItemPair = std::pair<std::size_t, std::size_t>;

/// The cell sweep of SCH007, RTL005 and RTL007: each pair of items that
/// share a cell in `cells` and pass `clash`, once, in ascending order; an
/// item listing one cell twice pairs with itself. Adds the cells it sorts
/// plus the same-cell pairs it compares to `work`.
std::vector<ItemPair> clashingPairs(
    std::vector<CellUse> cells,
    const std::function<bool(std::size_t, std::size_t)>& clash,
    std::uint64_t& work);

/// The clashes among `ops` on one unit (SCH007, RTL005): an op holds its
/// start step on a pipelined unit, else each step it runs, folded mod a
/// positive `latency`; mutually exclusive ops may share a step.
std::vector<ItemPair> opClashes(const sched::Schedule& s,
                                const std::vector<dfg::NodeId>& ops,
                                bool pipelined, int latency,
                                std::uint64_t& work);

/// How an op that clashes with itself overlaps its own next initiation.
std::string selfOverlap(const dfg::Node& n, int latency);

// Stable rule ids. Rules are never renumbered; retired ids are not reused.
// -- DFG family --------------------------------------------------------------
inline constexpr std::string_view kDfgParseFailure = "DFG000";
inline constexpr std::string_view kDfgDanglingInput = "DFG001";
inline constexpr std::string_view kDfgArityMismatch = "DFG002";
inline constexpr std::string_view kDfgCycle = "DFG003";
inline constexpr std::string_view kDfgUnreachableOp = "DFG004";
inline constexpr std::string_view kDfgBadCycles = "DFG005";
inline constexpr std::string_view kDfgBadDelayOverride = "DFG006";
inline constexpr std::string_view kDfgBadBranchPath = "DFG007";
inline constexpr std::string_view kDfgDuplicateName = "DFG008";
inline constexpr std::string_view kDfgDeadLeaf = "DFG009";
inline constexpr std::string_view kDfgForwardRef = "DFG010";
inline constexpr std::string_view kDfgBadOutputRef = "DFG011";
inline constexpr std::string_view kDfgBadWidth = "DFG012";
inline constexpr std::string_view kDfgConstWidthOverflow = "DFG013";
// -- schedule family ---------------------------------------------------------
inline constexpr std::string_view kSchedParseFailure = "SCH000";
inline constexpr std::string_view kSchedUnplaced = "SCH001";
inline constexpr std::string_view kSchedOutOfRange = "SCH002";
inline constexpr std::string_view kSchedBadColumn = "SCH003";
inline constexpr std::string_view kSchedPrecedence = "SCH004";
inline constexpr std::string_view kSchedChainOverflow = "SCH005";
inline constexpr std::string_view kSchedMidStepStart = "SCH006";
inline constexpr std::string_view kSchedOccupancy = "SCH007";
inline constexpr std::string_view kSchedResourceLimit = "SCH008";
// -- RTL family --------------------------------------------------------------
inline constexpr std::string_view kRtlDoubleBinding = "RTL001";
inline constexpr std::string_view kRtlNonOpBound = "RTL002";
inline constexpr std::string_view kRtlUnsupportedOp = "RTL003";
inline constexpr std::string_view kRtlUnboundOp = "RTL004";
inline constexpr std::string_view kRtlAluOverlap = "RTL005";
inline constexpr std::string_view kRtlSelfLoop = "RTL006";
inline constexpr std::string_view kRtlRegisterOverlap = "RTL007";
inline constexpr std::string_view kRtlMissingRegister = "RTL008";
inline constexpr std::string_view kRtlUnconnectedPort = "RTL009";
inline constexpr std::string_view kRtlBusContention = "RTL010";
inline constexpr std::string_view kRtlBusIdle = "RTL011";
inline constexpr std::string_view kRtlBadFieldRef = "RTL012";
inline constexpr std::string_view kRtlFieldOverflow = "RTL013";
// -- EQV family (translation validator, src/analysis/validate/) --------------
inline constexpr std::string_view kEqvParseFailure = "EQV000";
inline constexpr std::string_view kEqvOperandMismatch = "EQV001";
inline constexpr std::string_view kEqvRegisterClobber = "EQV002";
inline constexpr std::string_view kEqvOutputUnreachable = "EQV003";
inline constexpr std::string_view kEqvMuxRoute = "EQV004";
inline constexpr std::string_view kEqvStepDisagreement = "EQV005";
// -- LIB family (cell libraries) ---------------------------------------------
inline constexpr std::string_view kLibParseFailure = "LIB000";
inline constexpr std::string_view kLibDuplicateCell = "LIB001";
inline constexpr std::string_view kLibBadArea = "LIB002";
inline constexpr std::string_view kLibBadDelay = "LIB003";
inline constexpr std::string_view kLibMissingCell = "LIB004";
inline constexpr std::string_view kLibBadStages = "LIB005";
inline constexpr std::string_view kLibMuxTable = "LIB006";
// -- OPT family (dataflow analysis, src/analysis/dataflow/) ------------------
inline constexpr std::string_view kOptFoldableConst = "OPT001";
inline constexpr std::string_view kOptDeadOp = "OPT002";
inline constexpr std::string_view kOptDuplicateExpr = "OPT003";
inline constexpr std::string_view kOptOverWideOp = "OPT004";
// -- TIM family (static timing analysis, src/analysis/timing/) ---------------
inline constexpr std::string_view kTimClockViolation = "TIM001";
inline constexpr std::string_view kTimUnconstrainedChain = "TIM002";
inline constexpr std::string_view kTimMulticycleUnderAlloc = "TIM003";
inline constexpr std::string_view kTimNearCritical = "TIM004";
// -- AUD family (reachability-aware RTL audit, src/analysis/audit/) ----------
inline constexpr std::string_view kAudUnreachable = "AUD001";
inline constexpr std::string_view kAudReadBeforeWrite = "AUD002";
inline constexpr std::string_view kAudBusContention = "AUD003";
inline constexpr std::string_view kAudDeadMuxInput = "AUD004";
inline constexpr std::string_view kAudWriteClobber = "AUD005";
inline constexpr std::string_view kAudXPropagation = "AUD006";
// -- WID family (interval/width range analysis, src/analysis/range/) ---------
inline constexpr std::string_view kWidTruncatingWrite = "WID001";
inline constexpr std::string_view kWidSharedLineOverflow = "WID002";
inline constexpr std::string_view kWidDeclaredWidthOverflow = "WID003";
inline constexpr std::string_view kWidValueDeadMuxInput = "WID004";
inline constexpr std::string_view kWidAssertViolated = "WID005";

}  // namespace mframe::analysis
