#include "alloc/muxopt.h"

#include <algorithm>

#include "trace/trace.h"

namespace mframe::alloc {

namespace {

bool contains(const std::vector<bool>& s, dfg::NodeId x) {
  return x < s.size() && s[x];
}

/// Set bit `x` of `s` to `on`, growing `s` only to set a bit.
void assignBit(std::vector<bool>& s, dfg::NodeId x, bool on) {
  if (x >= s.size()) {
    if (!on) return;
    s.resize(x + 1);
  }
  s[x] = on;
}

void addUnique(std::vector<dfg::NodeId>& v, std::vector<bool>& s,
               dfg::NodeId x) {
  if (contains(s, x)) return;
  assignBit(s, x, true);
  v.push_back(x);
}

bool isCommutativePair(const dfg::Node& n) {
  return dfg::isCommutative(n.kind) && n.inputs.size() == 2;
}

/// The pass-2 orientation of commutative `n` against `a`'s port sets: swap
/// when that adds fewer new signals (ties keep the natural order).
bool prefersSwap(const MuxArrangement& a, const dfg::Node& n) {
  const dfg::NodeId x = n.inputs[0];
  const dfg::NodeId y = n.inputs[1];
  const int costNatural =
      (contains(a.leftSet, x) ? 0 : 1) + (contains(a.rightSet, y) ? 0 : 1);
  const int costSwapped =
      (contains(a.leftSet, y) ? 0 : 1) + (contains(a.rightSet, x) ? 0 : 1);
  return costSwapped < costNatural;
}

/// Commit commutative `n` to `a` in its pass-2 orientation.
void placeCommutative(MuxArrangement& a, const dfg::Node& n) {
  const bool swap = prefersSwap(a, n);
  addUnique(a.left, a.leftSet, n.inputs[swap ? 1 : 0]);
  addUnique(a.right, a.rightSet, n.inputs[swap ? 0 : 1]);
  assignBit(a.swapped, n.id, swap);
}

/// Port sizes after appending commutative `n` to `base`. Appended last, the
/// op is decided last in pass 2: the state it sees is exactly `base`, and
/// nothing after it can change.
MuxDelta commutativeDelta(const MuxArrangement& base, const dfg::Node& n) {
  MuxDelta d;
  d.swapped = prefersSwap(base, n);
  const dfg::NodeId l = n.inputs[d.swapped ? 1 : 0];
  const dfg::NodeId r = n.inputs[d.swapped ? 0 : 1];
  d.left = base.left.size() + (contains(base.leftSet, l) ? 0 : 1);
  d.right = base.right.size() + (contains(base.rightSet, r) ? 0 : 1);
  return d;
}

/// Whether fixed-order `n`'s operands are already pass-1 pinned to their
/// ports in `a`, so adding `n` leaves pass 1 — and every pass-2 decision —
/// unchanged.
bool pinsAlreadyPinned(const MuxArrangement& a, const dfg::Node& n) {
  return (n.inputs.empty() || contains(a.pinnedLeftSet, n.inputs[0])) &&
         (n.inputs.size() < 2 || contains(a.pinnedRightSet, n.inputs[1]));
}

}  // namespace

MuxArrangement::Ports MuxArrangement::portSignals(const dfg::Node& n) const {
  Ports p;
  if (n.inputs.empty()) return p;
  const bool swap = isSwapped(n.id) && n.inputs.size() == 2;
  p.left = n.inputs[swap ? 1 : 0];
  if (n.inputs.size() >= 2) p.right = n.inputs[swap ? 0 : 1];
  return p;
}

MuxArrangement arrangeInputs(const dfg::Dfg& g,
                             const std::vector<dfg::NodeId>& ops) {
  trace::bump(trace::Counter::MuxFullArrangements);
  MuxArrangement a;

  // Pass 1: fixed-order operations pin their signals to their ports.
  for (dfg::NodeId id : ops) {
    const dfg::Node& n = g.node(id);
    if (isCommutativePair(n)) continue;
    if (n.inputs.size() >= 1) addUnique(a.left, a.leftSet, n.inputs[0]);
    if (n.inputs.size() >= 2) addUnique(a.right, a.rightSet, n.inputs[1]);
  }
  a.pinnedLeft = a.left;
  a.pinnedRight = a.right;
  a.pinnedLeftSet = a.leftSet;
  a.pinnedRightSet = a.rightSet;
  // Pass 2: each commutative operation picks the orientation that adds the
  // fewest new signals (ties keep the natural order).
  for (dfg::NodeId id : ops) {
    const dfg::Node& n = g.node(id);
    if (isCommutativePair(n)) placeCommutative(a, n);
  }
  return a;
}

MuxDelta arrangeInputsDelta(const dfg::Dfg& g, const MuxArrangement& base,
                            const std::vector<dfg::NodeId>& baseOps,
                            dfg::NodeId op) {
  const dfg::Node& n = g.node(op);
  if (isCommutativePair(n)) {
    trace::bump(trace::Counter::MuxDeltaIncremental);
    return commutativeDelta(base, n);
  }
  // Fixed-order op: exact only if its pins were already pass-1 pinned, in
  // which case the op adds no signals.
  MuxDelta d;
  if (pinsAlreadyPinned(base, n)) {
    d.left = base.left.size();
    d.right = base.right.size();
    trace::bump(trace::Counter::MuxDeltaIncremental);
    return d;
  }
  trace::bump(trace::Counter::MuxDeltaRebuilds);
  std::vector<dfg::NodeId> after = baseOps;
  after.push_back(op);
  const MuxArrangement full = arrangeInputs(g, after);
  d.left = full.left.size();
  d.right = full.right.size();
  d.rebuilt = true;
  return d;
}

void appendToArrangement(const dfg::Dfg& g, MuxArrangement& a, dfg::NodeId op) {
  const dfg::Node& n = g.node(op);
  if (isCommutativePair(n)) {
    // Appended last, the op is decided last in pass 2 against exactly the
    // current port sets, and no earlier decision can change — commit its
    // orientation choice directly.
    placeCommutative(a, n);
    return;
  }
  // Fixed-order: the operands join their ports and the pass-1 pins, where
  // they may already be. Fresh pins leave a valid but not provably minimal
  // arrangement (see the header contract).
  if (n.inputs.size() >= 1) {
    addUnique(a.left, a.leftSet, n.inputs[0]);
    addUnique(a.pinnedLeft, a.pinnedLeftSet, n.inputs[0]);
  }
  if (n.inputs.size() >= 2) {
    addUnique(a.right, a.rightSet, n.inputs[1]);
    addUnique(a.pinnedRight, a.pinnedRightSet, n.inputs[1]);
  }
}

MuxDelta appendDelta(const dfg::Dfg& g, const MuxArrangement& base,
                     dfg::NodeId op) {
  const dfg::Node& n = g.node(op);
  trace::bump(trace::Counter::MuxDeltaIncremental);
  if (isCommutativePair(n)) return commutativeDelta(base, n);
  MuxDelta d;
  d.left = base.left.size() +
           (n.inputs.empty() || contains(base.leftSet, n.inputs[0]) ? 0 : 1);
  d.right = base.right.size() +
            (n.inputs.size() < 2 || contains(base.rightSet, n.inputs[1]) ? 0 : 1);
  return d;
}

double muxCostOf(const celllib::CellLibrary& lib, const MuxArrangement& a) {
  return lib.muxCost(static_cast<int>(a.left.size())) +
         lib.muxCost(static_cast<int>(a.right.size()));
}

}  // namespace mframe::alloc
