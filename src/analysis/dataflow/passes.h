// The concrete dataflow passes built on the one-sweep engine (engine.h):
//
//   analyzeConstants  — forward constant propagation over evalOp semantics,
//                       including the absorbing rules (x*0, x&0, x/0) that
//                       fold operations whose operands are not all constant
//   analyzeRanges     — forward value-range inference on the interval
//                       lattice; declared Input widths seed the ranges
//   inferWidths       — bit widths implied by the inferred ranges
//   analyzeDemand     — backward liveness: which operations must actually
//                       execute at run time once constants are folded
//   findDuplicateExprs— common-subexpression detection via the validator's
//                       hash-consed value numbering
//
// All passes are pure queries; applyFixes (analyze.h) is the only rewriter.
#pragma once

#include <vector>

#include "analysis/dataflow/lattice.h"
#include "dfg/dfg.h"

namespace mframe::analysis::dataflow {

/// The analysis word width of every dataflow pass, OPT lint and the
/// FSM×datapath range analysis (matches the simulators).
inline constexpr int kWordWidth = 16;

/// Constant value of every node, indexed by NodeId. `visits` (optional)
/// receives the engine's node-evaluation count.
std::vector<ConstValue> analyzeConstants(const dfg::Dfg& g,
                                         int wordWidth = kWordWidth,
                                         int* visits = nullptr);

/// One operation's interval transfer at the analysis word width: the
/// conservative bound arithmetic shared by analyzeRanges and the
/// FSM×datapath range analysis (src/analysis/range/). Bounds route through
/// the checked helpers in lattice.h — any step that would leave the word
/// domain saturates to the full range instead of wrapping. Unary kinds
/// ignore `b`; Input/Const/LoopSuper never reach this function.
Interval intervalTransfer(dfg::OpKind kind, const Interval& a,
                          const Interval& b, int width);

/// Value range of every node, indexed by NodeId. An Input node with a
/// declared width is assumed to range over [0, 2^width - 1]; declared
/// widths on operations do NOT constrain ranges (evalOp masks at the
/// analysis word width only), they are what OPT004 audits.
std::vector<Interval> analyzeRanges(const dfg::Dfg& g,
                                    int wordWidth = kWordWidth,
                                    int* visits = nullptr);

/// Bits needed per node under `ranges` (Interval::widthNeeded).
std::vector<int> inferWidths(const std::vector<Interval>& ranges);

/// Backward demand: demand[n] is true iff node n must execute at run time
/// AND therefore needs its operands — i.e. n is a schedulable operation
/// whose value is not a compile-time constant, and n is a primary output or
/// feeds some demanded consumer. A node's *result* is needed iff it is an
/// output or some consumer is demanded (see resultNeeded).
std::vector<char> analyzeDemand(const dfg::Dfg& g,
                                const std::vector<ConstValue>& consts,
                                int* visits = nullptr);

/// needed[n]: the value of n must exist at run time (as a computed signal or
/// as a folded constant) — n is an output or feeds a demanded consumer.
std::vector<char> resultNeeded(const dfg::Dfg& g,
                               const std::vector<char>& demand);

/// One set of operations computing the same expression. `first` is the
/// canonical (lowest-id) producer; `repeats` are the redundant ones.
struct DuplicateGroup {
  dfg::NodeId first = dfg::kNoNode;
  std::vector<dfg::NodeId> repeats;
};

/// Structural common subexpressions among schedulable operations, found by
/// value numbering (commutative operand order normalized). Groups are
/// ordered by their canonical node id.
std::vector<DuplicateGroup> findDuplicateExprs(const dfg::Dfg& g);

}  // namespace mframe::analysis::dataflow
