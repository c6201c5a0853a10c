#include "analysis/validate/value_numbering.h"

#include <algorithm>
#include <cstdint>
#include <functional>

#include "util/strings.h"

namespace mframe::analysis {

Vn ValueNumbering::intern(Def d) {
  defs_.push_back(std::move(d));
  return static_cast<Vn>(defs_.size() - 1);
}

Vn ValueNumbering::ofInput(dfg::NodeId node) {
  auto it = inputVn_.find(node);
  if (it != inputVn_.end()) return it->second;
  Def d;
  d.kind = Def::Kind::Input;
  d.node = node;
  return inputVn_[node] = intern(d);
}

Vn ValueNumbering::ofConst(long value) {
  auto it = constVn_.find(value);
  if (it != constVn_.end()) return it->second;
  Def d;
  d.kind = Def::Kind::Const;
  d.value = value;
  return constVn_[value] = intern(d);
}

std::size_t ValueNumbering::OpKeyHash::operator()(const OpKey& k) const {
  const auto [kind, a, b] = k;
  const std::uint64_t operands =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
      static_cast<std::uint32_t>(b);
  return std::hash<std::uint64_t>{}(
      operands ^ (static_cast<std::uint64_t>(kind) * 0x9e3779b97f4a7c15ull));
}

Vn ValueNumbering::ofOp(dfg::OpKind kind, Vn a, Vn b) {
  if (dfg::isCommutative(kind) && b != kNoVn && b < a) std::swap(a, b);
  const auto key = std::make_tuple(kind, a, b);
  auto it = opVn_.find(key);
  if (it != opVn_.end()) return it->second;
  Def d;
  d.kind = Def::Kind::Op;
  d.op = kind;
  d.a = a;
  d.b = b;
  return opVn_[key] = intern(d);
}

Vn ValueNumbering::ofOpaque(dfg::NodeId node) {
  auto it = opaqueVn_.find(node);
  if (it != opaqueVn_.end()) return it->second;
  Def d;
  d.kind = Def::Kind::Opaque;
  d.node = node;
  return opaqueVn_[node] = intern(d);
}

Vn ValueNumbering::fresh() { return intern(Def{}); }

std::vector<Vn> ValueNumbering::numberGraph(const dfg::Dfg& g) {
  std::vector<Vn> ideal(g.size(), kNoVn);
  for (const dfg::Node& n : g.nodes()) {
    switch (n.kind) {
      case dfg::OpKind::Input:
        ideal[n.id] = ofInput(n.id);
        break;
      case dfg::OpKind::Const:
        ideal[n.id] = ofConst(n.constValue);
        break;
      case dfg::OpKind::LoopSuper:
        ideal[n.id] = ofOpaque(n.id);
        break;
      default: {
        const Vn a = n.inputs.empty() ? kNoVn : ideal[n.inputs[0]];
        const Vn b = n.inputs.size() < 2 ? kNoVn : ideal[n.inputs[1]];
        ideal[n.id] = ofOp(n.kind, a, b);
      }
    }
  }
  return ideal;
}

std::string ValueNumbering::toString(Vn v, const dfg::Dfg& g, int depth) const {
  if (v < 0 || v >= static_cast<Vn>(defs_.size())) return "?";
  if (depth <= 0) return "...";
  const Def& d = defs_[static_cast<std::size_t>(v)];
  switch (d.kind) {
    case Def::Kind::Input: return g.node(d.node).name;
    case Def::Kind::Const: return util::format("%ld", d.value);
    case Def::Kind::Opaque: return "loop:" + g.node(d.node).name;
    case Def::Kind::Fresh: return util::format("junk#%d", v);
    case Def::Kind::Op: {
      const std::string sym(dfg::kindSymbol(d.op));
      if (d.b == kNoVn)
        return "(" + sym + " " + toString(d.a, g, depth - 1) + ")";
      return "(" + toString(d.a, g, depth - 1) + " " + sym + " " +
             toString(d.b, g, depth - 1) + ")";
    }
  }
  return "?";
}

}  // namespace mframe::analysis
