// Fluent construction API for DFGs.
//
//   Builder b("diffeq");
//   auto x  = b.input("x");
//   auto dx = b.input("dx");
//   auto t1 = b.mul(x, dx, "t1");
//   b.output(t1, "xo");
//   Dfg g = std::move(b).build();   // validates; throws on malformed graphs
#pragma once

#include <stdexcept>
#include <string>

#include "dfg/dfg.h"

namespace mframe::dfg {

/// Thrown by Builder::build() (and parse()) on malformed graphs.
class DfgError : public std::runtime_error {
 public:
  explicit DfgError(const std::string& what) : std::runtime_error(what) {}
};

class Builder {
 public:
  explicit Builder(std::string name) : g_(std::move(name)) {}

  /// `width` declares the signal's bit width (0 = unspecified; the dataflow
  /// analyses then assume the machine word width).
  NodeId input(std::string name, int width = 0);
  NodeId constant(long value, std::string name);

  /// Generic operation node. `cycles`/`delayNs` override the defaults; the
  /// current branch scope (see pushBranch) is recorded on the node.
  NodeId op(OpKind kind, std::vector<NodeId> inputs, std::string name,
            int cycles = 1, double delayNs = -1.0);

  // Arity-2 conveniences.
  NodeId add(NodeId a, NodeId b, std::string name) { return op(OpKind::Add, {a, b}, std::move(name)); }
  NodeId sub(NodeId a, NodeId b, std::string name) { return op(OpKind::Sub, {a, b}, std::move(name)); }
  NodeId mul(NodeId a, NodeId b, std::string name, int cycles = 1) {
    return op(OpKind::Mul, {a, b}, std::move(name), cycles);
  }
  NodeId div(NodeId a, NodeId b, std::string name) { return op(OpKind::Div, {a, b}, std::move(name)); }
  NodeId band(NodeId a, NodeId b, std::string name) { return op(OpKind::And, {a, b}, std::move(name)); }
  NodeId bor(NodeId a, NodeId b, std::string name) { return op(OpKind::Or, {a, b}, std::move(name)); }
  NodeId bxor(NodeId a, NodeId b, std::string name) { return op(OpKind::Xor, {a, b}, std::move(name)); }
  NodeId lt(NodeId a, NodeId b, std::string name) { return op(OpKind::Lt, {a, b}, std::move(name)); }
  NodeId gt(NodeId a, NodeId b, std::string name) { return op(OpKind::Gt, {a, b}, std::move(name)); }
  NodeId eq(NodeId a, NodeId b, std::string name) { return op(OpKind::Eq, {a, b}, std::move(name)); }
  NodeId inc(NodeId a, std::string name) { return op(OpKind::Inc, {a}, std::move(name)); }
  NodeId bnot(NodeId a, std::string name) { return op(OpKind::Not, {a}, std::move(name)); }

  void output(NodeId id, std::string externalName) { g_.markOutput(id, std::move(externalName)); }

  /// Enter / leave a conditional arm. Nodes created inside carry the nested
  /// branch path, e.g. pushBranch("c1","t") ... popBranch(). Ops in sibling
  /// arms of the same conditional become mutually exclusive (Section 5.1).
  void pushBranch(const std::string& condId, const std::string& armId);
  void popBranch();

  /// Validate and hand out the graph. The builder is consumed.
  Dfg build() &&;

 private:
  Dfg g_;
  std::string branchScope_;  // current path, "" at top level
};

}  // namespace mframe::dfg
