#include "analysis/dataflow/passes.h"

#include <algorithm>
#include <map>

#include "analysis/dataflow/engine.h"
#include "analysis/validate/value_numbering.h"

namespace mframe::analysis::dataflow {

namespace {

using dfg::NodeId;
using dfg::OpKind;
using sim::Word;

/// True when `v` is the constant zero — the absorbing element of the rules
/// below.
bool isZero(const ConstValue& v) { return v.isConst() && v.value == 0; }

struct ConstDomain {
  using Value = ConstValue;
  int width;

  Value transfer(const dfg::Node& n, const std::vector<Value>& deps) const {
    switch (n.kind) {
      case OpKind::Input: return ConstValue::varying();
      case OpKind::Const:
        return ConstValue::constant(static_cast<Word>(n.constValue) &
                                    sim::maskFor(width));
      case OpKind::LoopSuper: return ConstValue::varying();  // opaque body
      default: break;
    }
    const Value a = !deps.empty() ? deps[0] : ConstValue::varying();
    const Value b = deps.size() > 1 ? deps[1] : ConstValue::varying();
    // Absorbing rules fold even with one non-constant operand; they mirror
    // evalOp exactly (division by zero yields 0 by convention).
    if ((n.kind == OpKind::Mul || n.kind == OpKind::And) &&
        (isZero(a) || isZero(b)))
      return ConstValue::constant(0);
    if (n.kind == OpKind::Div && isZero(b)) return ConstValue::constant(0);
    if (a.state == ConstValue::State::Unknown ||
        (dfg::arity(n.kind) > 1 && b.state == ConstValue::State::Unknown))
      return ConstValue::unknown();
    if (!a.isConst() || (dfg::arity(n.kind) > 1 && !b.isConst()))
      return ConstValue::varying();
    return ConstValue::constant(
        sim::evalOp(n.kind, a.value, b.isConst() ? b.value : 0, width));
  }
};

struct RangeDomain {
  using Value = Interval;
  int width;

  Value transfer(const dfg::Node& n, const std::vector<Value>& deps) const {
    const Interval top = Interval::full(width);
    switch (n.kind) {
      case OpKind::Input:
        return n.width > 0 ? Interval::full(std::min(n.width, width)) : top;
      case OpKind::Const:
        return Interval::constant(static_cast<Word>(n.constValue), width);
      case OpKind::LoopSuper: return top;
      default: break;
    }
    const Interval a = !deps.empty() ? deps[0] : top;
    const Interval b = deps.size() > 1 ? deps[1] : top;
    return intervalTransfer(n.kind, a, b, width);
  }
};

struct DemandDomain {
  using Value = char;
  const dfg::Dfg* g;
  const std::vector<ConstValue>* consts;
  std::vector<char> isOutput;

  explicit DemandDomain(const dfg::Dfg& graph,
                        const std::vector<ConstValue>& c)
      : g(&graph), consts(&c), isOutput(graph.size(), 0) {
    for (const auto& [id, ext] : graph.outputs())
      if (id < graph.size()) isOutput[id] = 1;
  }

  /// demand[n]: n executes at run time and reads its operands. Constant-
  /// valued operations fold away, so they demand nothing; leaves never do.
  Value transfer(const dfg::Node& n, const std::vector<Value>& succDemand) const {
    if (!dfg::isSchedulable(n.kind)) return 0;
    if ((*consts)[n.id].isConst()) return 0;
    if (isOutput[n.id]) return 1;
    return std::any_of(succDemand.begin(), succDemand.end(),
                       [](char d) { return d != 0; })
               ? 1
               : 0;
  }
};

}  // namespace

Interval intervalTransfer(dfg::OpKind kind, const Interval& a,
                          const Interval& b, int width) {
  const Word mask = sim::maskFor(width);
  const Interval top = Interval::full(width);
  Word lo = 0;
  Word hi = 0;
  switch (kind) {
    case OpKind::Add:
      if (!checkedAdd(a.lo, b.lo, mask, lo) ||
          !checkedAdd(a.hi, b.hi, mask, hi))
        return top;  // may wrap the word width
      return {lo, hi};
    case OpKind::Inc:
      if (!checkedAdd(a.lo, 1, mask, lo) || !checkedAdd(a.hi, 1, mask, hi))
        return top;
      return {lo, hi};
    case OpKind::Sub:
      if (!checkedSub(a.lo, b.hi, lo) || !checkedSub(a.hi, b.lo, hi))
        return top;  // may go below zero and wrap
      return {lo, hi};
    case OpKind::Dec:
      if (!checkedSub(a.lo, 1, lo) || !checkedSub(a.hi, 1, hi)) return top;
      return {lo, hi};
    case OpKind::Mul:
      if (!checkedMul(a.lo, b.lo, mask, lo) ||
          !checkedMul(a.hi, b.hi, mask, hi))
        return top;
      return {lo, hi};
    case OpKind::Div:
      // A zero divisor yields 0 by convention, so the quotient never
      // exceeds the dividend either way.
      if (b.lo == 0) return {0, a.hi};
      return {a.lo / b.hi, a.hi / b.lo};
    case OpKind::And: return {0, std::min(a.hi, b.hi)};
    case OpKind::Or: {
      const Word bound = sim::maskFor(bitsFor(a.hi | b.hi));
      return {std::max(a.lo, b.lo), std::min(bound, mask)};
    }
    case OpKind::Xor: {
      const Word bound = sim::maskFor(bitsFor(a.hi | b.hi));
      return {0, std::min(bound, mask)};
    }
    case OpKind::Not: return {mask - a.hi, mask - a.lo};
    case OpKind::Shl: {
      if (!b.isConst() || width <= 0) return top;  // evalOp: shift b % width
      const auto sh =
          static_cast<unsigned>(b.lo % static_cast<Word>(width));
      if (!checkedShl(a.lo, sh, mask, lo) || !checkedShl(a.hi, sh, mask, hi))
        return top;
      return {lo, hi};
    }
    case OpKind::Shr: {
      if (!b.isConst() || width <= 0) return {0, a.hi};  // only shrinks
      const Word sh = b.lo % static_cast<Word>(width);
      return {a.lo >> sh, a.hi >> sh};
    }
    case OpKind::Eq:
    case OpKind::Ne:
    case OpKind::Lt:
    case OpKind::Gt:
    case OpKind::Le:
    case OpKind::Ge: return {0, 1};
    default: return top;
  }
}

std::vector<ConstValue> analyzeConstants(const dfg::Dfg& g, int wordWidth,
                                         int* visits) {
  const ConstDomain dom{wordWidth};
  auto r = solve(g, dom, Direction::Forward);
  if (visits) *visits = r.visits;
  return std::move(r.values);
}

std::vector<Interval> analyzeRanges(const dfg::Dfg& g, int wordWidth,
                                    int* visits) {
  const RangeDomain dom{wordWidth};
  auto r = solve(g, dom, Direction::Forward);
  if (visits) *visits = r.visits;
  return std::move(r.values);
}

std::vector<int> inferWidths(const std::vector<Interval>& ranges) {
  std::vector<int> w;
  w.reserve(ranges.size());
  for (const Interval& r : ranges) w.push_back(r.widthNeeded());
  return w;
}

std::vector<char> analyzeDemand(const dfg::Dfg& g,
                                const std::vector<ConstValue>& consts,
                                int* visits) {
  const DemandDomain dom(g, consts);
  auto r = solve(g, dom, Direction::Backward);
  if (visits) *visits = r.visits;
  return std::move(r.values);
}

std::vector<char> resultNeeded(const dfg::Dfg& g,
                               const std::vector<char>& demand) {
  std::vector<char> needed(g.size(), 0);
  for (const auto& [id, ext] : g.outputs())
    if (id < g.size()) needed[id] = 1;
  for (NodeId id = 0; id < g.size(); ++id)
    if (demand[id])
      for (NodeId in : g.node(id).inputs) needed[in] = 1;
  return needed;
}

std::vector<DuplicateGroup> findDuplicateExprs(const dfg::Dfg& g) {
  ValueNumbering vn;
  const std::vector<Vn> number = vn.numberGraph(g);
  std::map<Vn, std::vector<NodeId>> byValue;
  for (NodeId id = 0; id < g.size(); ++id)
    if (dfg::isSchedulable(g.node(id).kind)) byValue[number[id]].push_back(id);

  std::vector<DuplicateGroup> groups;
  for (const auto& [v, ids] : byValue) {
    if (ids.size() < 2) continue;
    DuplicateGroup grp;
    grp.first = ids.front();
    grp.repeats.assign(ids.begin() + 1, ids.end());
    groups.push_back(std::move(grp));
  }
  std::sort(groups.begin(), groups.end(),
            [](const DuplicateGroup& a, const DuplicateGroup& b) {
              return a.first < b.first;
            });
  return groups;
}

}  // namespace mframe::analysis::dataflow
