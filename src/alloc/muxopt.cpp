#include "alloc/muxopt.h"

#include <algorithm>

#include "trace/trace.h"

namespace mframe::alloc {

namespace {

bool contains(const std::unordered_set<dfg::NodeId>& s, dfg::NodeId x) {
  return s.find(x) != s.end();
}

void addUnique(std::vector<dfg::NodeId>& v, std::unordered_set<dfg::NodeId>& s,
               dfg::NodeId x) {
  if (s.insert(x).second) v.push_back(x);
}

}  // namespace

MuxArrangement::Ports MuxArrangement::portSignals(const dfg::Node& n) const {
  Ports p;
  if (n.inputs.empty()) return p;
  const auto it = swapped.find(n.id);
  const bool swap = it != swapped.end() && it->second && n.inputs.size() == 2;
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
    if (dfg::isCommutative(n.kind) && n.inputs.size() == 2) continue;
    if (n.inputs.size() >= 1) addUnique(a.left, a.leftSet, n.inputs[0]);
    if (n.inputs.size() >= 2) addUnique(a.right, a.rightSet, n.inputs[1]);
    a.swapped[id] = false;
  }
  a.pinnedLeft = a.left;
  a.pinnedRight = a.right;
  a.pinnedLeftSet = a.leftSet;
  a.pinnedRightSet = a.rightSet;
  // Pass 2: each commutative operation picks the orientation that adds the
  // fewest new signals (ties keep the natural order).
  for (dfg::NodeId id : ops) {
    const dfg::Node& n = g.node(id);
    if (!dfg::isCommutative(n.kind) || n.inputs.size() != 2) continue;
    const dfg::NodeId x = n.inputs[0];
    const dfg::NodeId y = n.inputs[1];
    const int costNatural =
        (contains(a.leftSet, x) ? 0 : 1) + (contains(a.rightSet, y) ? 0 : 1);
    const int costSwapped =
        (contains(a.leftSet, y) ? 0 : 1) + (contains(a.rightSet, x) ? 0 : 1);
    const bool swap = costSwapped < costNatural;
    addUnique(a.left, a.leftSet, swap ? y : x);
    addUnique(a.right, a.rightSet, swap ? x : y);
    a.swapped[id] = swap;
  }
  return a;
}

MuxDelta arrangeInputsDelta(const dfg::Dfg& g, const MuxArrangement& base,
                            const std::vector<dfg::NodeId>& baseOps,
                            dfg::NodeId op) {
  const dfg::Node& n = g.node(op);
  MuxDelta d;
  if (dfg::isCommutative(n.kind) && n.inputs.size() == 2) {
    // Appended last, the op is also decided last in pass 2: the state it
    // sees is exactly `base`, and nothing after it can change. Replay the
    // orientation choice against the final port sets.
    const dfg::NodeId x = n.inputs[0];
    const dfg::NodeId y = n.inputs[1];
    const int costNatural =
        (contains(base.leftSet, x) ? 0 : 1) + (contains(base.rightSet, y) ? 0 : 1);
    const int costSwapped =
        (contains(base.leftSet, y) ? 0 : 1) + (contains(base.rightSet, x) ? 0 : 1);
    d.swapped = costSwapped < costNatural;
    const dfg::NodeId l = d.swapped ? y : x;
    const dfg::NodeId r = d.swapped ? x : y;
    d.left = base.left.size() + (contains(base.leftSet, l) ? 0 : 1);
    d.right = base.right.size() + (contains(base.rightSet, r) ? 0 : 1);
    trace::bump(trace::Counter::MuxDeltaIncremental);
    return d;
  }
  // Fixed-order op: exact only if its pins were already pass-1 pinned, in
  // which case the batch run's pass-1 state — and so every pass-2 decision —
  // is unchanged and the op adds no signals.
  const bool leftPinned =
      n.inputs.empty() || contains(base.pinnedLeftSet, n.inputs[0]);
  const bool rightPinned =
      n.inputs.size() < 2 || contains(base.pinnedRightSet, n.inputs[1]);
  if (leftPinned && rightPinned) {
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

bool appendToArrangement(const dfg::Dfg& g, MuxArrangement& a, dfg::NodeId op) {
  const dfg::Node& n = g.node(op);
  if (dfg::isCommutative(n.kind) && n.inputs.size() == 2) {
    // Same argument as arrangeInputsDelta: appended last, the op is decided
    // last in pass 2 against exactly the current port sets, and no earlier
    // decision can change — commit its orientation choice directly.
    const dfg::NodeId x = n.inputs[0];
    const dfg::NodeId y = n.inputs[1];
    const int costNatural =
        (contains(a.leftSet, x) ? 0 : 1) + (contains(a.rightSet, y) ? 0 : 1);
    const int costSwapped =
        (contains(a.leftSet, y) ? 0 : 1) + (contains(a.rightSet, x) ? 0 : 1);
    const bool swap = costSwapped < costNatural;
    addUnique(a.left, a.leftSet, swap ? y : x);
    addUnique(a.right, a.rightSet, swap ? x : y);
    a.swapped[op] = swap;
    return true;
  }
  const bool leftPinned =
      n.inputs.empty() || contains(a.pinnedLeftSet, n.inputs[0]);
  const bool rightPinned =
      n.inputs.size() < 2 || contains(a.pinnedRightSet, n.inputs[1]);
  a.swapped[op] = false;
  if (leftPinned && rightPinned) {
    // Pass-1 state unchanged, so every pass-2 decision replays identically:
    // the op joins without moving any signal.
    return true;
  }
  // Fresh pass-1 pins: commit them greedily. A from-scratch re-arrangement
  // would have seen these pins before the batch's commutative decisions and
  // might have re-oriented some of them, so the result is valid but not
  // provably minimal (see the header contract).
  if (n.inputs.size() >= 1) {
    addUnique(a.left, a.leftSet, n.inputs[0]);
    addUnique(a.pinnedLeft, a.pinnedLeftSet, n.inputs[0]);
  }
  if (n.inputs.size() >= 2) {
    addUnique(a.right, a.rightSet, n.inputs[1]);
    addUnique(a.pinnedRight, a.pinnedRightSet, n.inputs[1]);
  }
  return false;
}

MuxDelta appendDelta(const dfg::Dfg& g, const MuxArrangement& base,
                     dfg::NodeId op) {
  const dfg::Node& n = g.node(op);
  MuxDelta d;
  trace::bump(trace::Counter::MuxDeltaIncremental);
  if (dfg::isCommutative(n.kind) && n.inputs.size() == 2) {
    const dfg::NodeId x = n.inputs[0];
    const dfg::NodeId y = n.inputs[1];
    const int costNatural =
        (contains(base.leftSet, x) ? 0 : 1) + (contains(base.rightSet, y) ? 0 : 1);
    const int costSwapped =
        (contains(base.leftSet, y) ? 0 : 1) + (contains(base.rightSet, x) ? 0 : 1);
    d.swapped = costSwapped < costNatural;
    const dfg::NodeId l = d.swapped ? y : x;
    const dfg::NodeId r = d.swapped ? x : y;
    d.left = base.left.size() + (contains(base.leftSet, l) ? 0 : 1);
    d.right = base.right.size() + (contains(base.rightSet, r) ? 0 : 1);
    return d;
  }
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
