// Multiplexer optimization (Section 5.6): each ALU is fed by two
// multiplexers (MUX1 for the left port, MUX2 for the right); the operand
// signals of the operations bound to the ALU must be arranged into the two
// port lists L1/L2 so that |L1| + |L2| is minimal. The paper's constructive
// algorithm "first assigns the non-commutative operations to the appropriate
// MUXes and then checks two possibilities for arranging input signals for
// each commutative operation".
#pragma once

#include <vector>

#include "celllib/cell_library.h"
#include "dfg/dfg.h"

namespace mframe::alloc {

struct MuxArrangement {
  std::vector<dfg::NodeId> left;   ///< distinct signals feeding port 1 (L1)
  std::vector<dfg::NodeId> right;  ///< distinct signals feeding port 2 (L2)
  /// Bit per op id, set where a commutative op's operands were swapped;
  /// sized to the largest swapped op, so at most V/8 bytes per ALU on a
  /// V-node graph. Read it through isSwapped; only the arrangement
  /// functions below write it.
  std::vector<bool> swapped;
  /// Signals pinned to each port by pass 1 (fixed-order operations). A
  /// subset of left/right; arrangeInputsDelta uses them to decide when a
  /// try-add is provably equivalent to a full re-arrangement.
  std::vector<dfg::NodeId> pinnedLeft;
  std::vector<dfg::NodeId> pinnedRight;

  /// Membership indexes mirroring the four lists above, maintained by
  /// arrangeInputs/appendToArrangement so the hot delta/append paths test
  /// port membership in O(1) instead of scanning the vectors. Each is a
  /// bit vector indexed by NodeId (bit set = the signal is on that list),
  /// sized to the largest member, so an ALU's four indexes take at most
  /// V/2 bytes on a V-node graph; a byte per node would be 8x that for
  /// every ALU of the search and of the finished datapath.
  std::vector<bool> leftSet, rightSet;
  std::vector<bool> pinnedLeftSet, pinnedRightSet;

  std::size_t totalInputs() const { return left.size() + right.size(); }

  /// Whether op `op` reads its operands swapped. False for fixed-order and
  /// unary ops and for ids this arrangement never saw.
  bool isSwapped(dfg::NodeId op) const {
    return op < swapped.size() && swapped[op];
  }

  /// The signals op `n` reads through port 1 and port 2 (kNoNode where it
  /// has no such operand): the one statement of the operand swap every
  /// reader of the datapath shares. A swapped commutative op reads
  /// inputs[1] on the left port and inputs[0] on the right. The RTL
  /// simulator (src/sim/) keeps its own statement on purpose: it is the
  /// independent oracle that prove's differential test and the benchmark's
  /// output check compare against the DFG.
  struct Ports {
    dfg::NodeId left = dfg::kNoNode;
    dfg::NodeId right = dfg::kNoNode;
  };
  Ports portSignals(const dfg::Node& n) const;
};

/// Arrange the operand signals of `ops` (all bound to one ALU) across the
/// two ports. Unary operations use the left port only. Deterministic in the
/// order of `ops`.
MuxArrangement arrangeInputs(const dfg::Dfg& g,
                             const std::vector<dfg::NodeId>& ops);

/// Cost(MUX1) + Cost(MUX2) under the library's nonlinear mux table. A port
/// with zero or one source costs nothing (a wire).
double muxCostOf(const celllib::CellLibrary& lib, const MuxArrangement& a);

/// Port sizes that arrangeInputs(g, baseOps + {op}) would produce, computed
/// incrementally against `base` (the arrangement of `baseOps`) whenever that
/// is provably exact:
///  - a commutative 2-input op is decided last in pass 2, so appending it
///    never disturbs earlier decisions — pure increment;
///  - a fixed-order op whose pins are already pass-1 pinned in `base` leaves
///    the pass-1 state, and hence every pass-2 decision, unchanged.
/// Any other fixed-order op pins new signals in pass 1 *before* the batch
/// run's commutative decisions and may flip them, so the delta falls back to
/// a full re-arrangement (`rebuilt` is set). Either way the returned sizes
/// match the from-scratch result exactly.
struct MuxDelta {
  std::size_t left = 0;   ///< |L1| after adding `op`
  std::size_t right = 0;  ///< |L2| after adding `op`
  bool swapped = false;   ///< orientation `op` would take
  bool rebuilt = false;   ///< fell back to a full arrangeInputs
};

MuxDelta arrangeInputsDelta(const dfg::Dfg& g, const MuxArrangement& base,
                            const std::vector<dfg::NodeId>& baseOps,
                            dfg::NodeId op);

/// Commit `op` into `a` in place, in O(1). The result equals re-running
/// arrangeInputs on the extended op list in the same two cases
/// arrangeInputsDelta proves exact (commutative append; fixed-order op
/// whose pins are already pass-1 pinned). A fixed-order op with fresh pins
/// is still committed (its operands join the pinned port lists), but a
/// from-scratch re-arrangement could have re-oriented earlier commutative
/// ops around the new pins, so the greedy result may carry larger port
/// lists (MuxOpt.DeltaUnpinnedFixedOrderFallsBackToRebuild). The
/// frontier scheduler accepts that drift to keep per-ALU arrangements O(1)
/// per commit — re-arranging the whole op list per commit is quadratic in
/// ops-per-ALU, which dominated 10^5-op synthesis runs. The arrangement
/// stays valid either way (every op's operands are on its ports) and its
/// recorded mux cost is always the true cost of the maintained port lists.
void appendToArrangement(const dfg::Dfg& g, MuxArrangement& a, dfg::NodeId op);

/// Port sizes appendToArrangement(g, base-copy, op) would leave behind,
/// without mutating `base` — the O(1) probe matching the O(1) commit. Equal
/// to arrangeInputsDelta wherever that is exact; for a fixed-order op with
/// fresh pins it prices the greedy commit instead of a full rebuild.
MuxDelta appendDelta(const dfg::Dfg& g, const MuxArrangement& base,
                     dfg::NodeId op);

}  // namespace mframe::alloc
