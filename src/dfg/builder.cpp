#include "dfg/builder.h"

#include "util/strings.h"

namespace mframe::dfg {

NodeId Builder::input(std::string name, int width) {
  Node n;
  n.kind = OpKind::Input;
  n.name = std::move(name);
  n.width = width;
  return g_.addNode(std::move(n));
}

NodeId Builder::constant(long value, std::string name) {
  Node n;
  n.kind = OpKind::Const;
  n.name = std::move(name);
  n.constValue = value;
  return g_.addNode(std::move(n));
}

NodeId Builder::op(OpKind kind, std::vector<NodeId> inputs, std::string name,
                   int cycles, double delayNs) {
  Node n;
  n.kind = kind;
  n.name = std::move(name);
  n.inputs = std::move(inputs);
  n.cycles = cycles;
  n.delayNs = delayNs;
  n.branchPath = branchScope_;
  return g_.addNode(std::move(n));
}

void Builder::pushBranch(const std::string& condId, const std::string& armId) {
  if (!branchScope_.empty()) branchScope_ += '.';
  branchScope_ += condId + '.' + armId;
}

void Builder::popBranch() {
  auto parts = util::split(branchScope_, '.');
  if (parts.size() < 2) throw DfgError("popBranch without matching pushBranch");
  parts.pop_back();
  parts.pop_back();
  branchScope_ = util::join(parts, ".");
}

Dfg Builder::build() && {
  if (auto err = g_.validate()) throw DfgError(g_.name() + ": " + *err);
  g_.freeze();
  return std::move(g_);
}

}  // namespace mframe::dfg
