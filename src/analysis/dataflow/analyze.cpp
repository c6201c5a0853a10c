#include "analysis/dataflow/analyze.h"

#include <vector>

#include "analysis/rules.h"
#include "trace/trace.h"
#include "util/strings.h"

namespace mframe::analysis::dataflow {

namespace {

using dfg::NodeId;
using dfg::OpKind;

Diagnostic optDiag(std::string_view rule, const dfg::Node& n,
                   std::string message, std::string fixit = "") {
  Diagnostic d;
  d.rule = std::string(rule);
  d.severity = findRule(rule)->severity;
  d.entity = EntityKind::Node;
  d.loc.node = n.name.empty() ? util::format("#%u", n.id) : n.name;
  d.message = std::move(message);
  d.fixit = std::move(fixit);
  return d;
}

/// Nodes whose value reaches some primary output structurally (ignoring
/// foldability) — DFG004 already owns unreachable ops, so OPT002 restricts
/// itself to ops that are reachable yet dead after folding.
std::vector<char> reachesOutput(const dfg::Dfg& g) {
  std::vector<char> reaches(g.size(), 0);
  std::vector<NodeId> work;
  for (const auto& [id, ext] : g.outputs())
    if (id < g.size() && !reaches[id]) {
      reaches[id] = 1;
      work.push_back(id);
    }
  while (!work.empty()) {
    const NodeId id = work.back();
    work.pop_back();
    for (NodeId in : g.node(id).inputs)
      if (!reaches[in]) {
        reaches[in] = 1;
        work.push_back(in);
      }
  }
  return reaches;
}

bool isRelational(OpKind k) {
  return k == OpKind::Eq || k == OpKind::Ne || k == OpKind::Lt ||
         k == OpKind::Gt || k == OpKind::Le || k == OpKind::Ge;
}

}  // namespace

DataflowResult lintDataflow(const dfg::Dfg& g) {
  const trace::Span span("dataflow");
  DataflowResult r;
  int visits = 0;
  r.constants = analyzeConstants(g, kWordWidth, &visits);
  r.engineVisits += visits;
  r.ranges = analyzeRanges(g, kWordWidth, &visits);
  r.engineVisits += visits;
  r.widths = inferWidths(r.ranges);
  r.demand = analyzeDemand(g, r.constants, &visits);
  r.engineVisits += visits;
  r.needed = resultNeeded(g, r.demand);
  r.duplicates = findDuplicateExprs(g);

  const std::vector<char> reaches = reachesOutput(g);

  // OPT001 / OPT002, in node order.
  for (NodeId id = 0; id < g.size(); ++id) {
    const dfg::Node& n = g.node(id);
    if (!dfg::isSchedulable(n.kind)) continue;
    if (r.constants[id].isConst()) {
      r.report.add(optDiag(
          kOptFoldableConst, n,
          util::format("'%s' always computes %llu", n.name.c_str(),
                       static_cast<unsigned long long>(r.constants[id].value)),
          util::format("replace with 'const %llu %s'",
                       static_cast<unsigned long long>(r.constants[id].value),
                       n.name.c_str())));
    } else if (!r.needed[id] && reaches[id]) {
      r.report.add(optDiag(
          kOptDeadOp, n,
          util::format("'%s' only feeds operations that fold to constants",
                       n.name.c_str()),
          "remove the operation (analyze --fix)"));
    }
  }

  // OPT003, grouped by canonical producer.
  for (const DuplicateGroup& grp : r.duplicates) {
    const dfg::Node& first = g.node(grp.first);
    for (NodeId repeat : grp.repeats) {
      const dfg::Node& n = g.node(repeat);
      Diagnostic d = optDiag(
          kOptDuplicateExpr, n,
          util::format("'%s' recomputes the expression of '%s'",
                       n.name.c_str(), first.name.c_str()),
          util::format("reuse signal '%s'", first.name.c_str()));
      d.provenance.push_back(util::format(
          "first computed by op '%s' (%s)", first.name.c_str(),
          std::string(dfg::kindName(first.kind)).c_str()));
      r.report.add(std::move(d));
    }
  }

  // OPT004: the declared (or word-default) width exceeds what the inferred
  // range needs. Relational results are one bit by construction and full-
  // range results carry no information, so neither is reported.
  for (NodeId id = 0; id < g.size(); ++id) {
    const dfg::Node& n = g.node(id);
    if (!dfg::isSchedulable(n.kind) || isRelational(n.kind) ||
        n.kind == OpKind::LoopSuper)
      continue;
    // A foldable op disappears entirely (OPT001); width advice is moot.
    if (r.constants[id].isConst()) continue;
    if (r.ranges[id].isFull(kWordWidth)) continue;
    const int declared = n.width > 0 ? n.width : kWordWidth;
    if (declared > r.widths[id])
      r.report.add(optDiag(
          kOptOverWideOp, n,
          util::format("'%s' is %d bit(s) wide but its values fit %d bit(s) "
                       "(range %llu..%llu)",
                       n.name.c_str(), declared, r.widths[id],
                       static_cast<unsigned long long>(r.ranges[id].lo),
                       static_cast<unsigned long long>(r.ranges[id].hi)),
          util::format("declare 'width=%d'", r.widths[id])));
  }

  return r;
}

dfg::Dfg applyFixes(const dfg::Dfg& g, const DataflowResult& analysis) {
  const std::size_t n = g.size();
  enum class Action : unsigned char { Keep, Fold, Drop };
  std::vector<Action> action(n, Action::Drop);

  // Operations: fold the constant-valued ones whose result is needed, keep
  // the demanded ones, drop the rest (dead after folding or unreachable).
  for (NodeId id = 0; id < n; ++id) {
    const dfg::Node& node = g.node(id);
    if (!dfg::isSchedulable(node.kind)) continue;
    if (analysis.constants[id].isConst())
      action[id] = analysis.needed[id] ? Action::Fold : Action::Drop;
    else
      action[id] = analysis.demand[id] ? Action::Keep : Action::Drop;
  }
  // Leaves: every Input survives (interface stability); a Const survives
  // only while some kept operation still reads it, or it is an output.
  std::vector<char> outputFlag(n, 0);
  for (const auto& [id, ext] : g.outputs())
    if (id < n) outputFlag[id] = 1;
  for (NodeId id = 0; id < n; ++id) {
    const dfg::Node& node = g.node(id);
    if (node.kind == OpKind::Input) action[id] = Action::Keep;
    if (node.kind == OpKind::Const)
      action[id] = outputFlag[id] ? Action::Keep : Action::Drop;
  }
  for (NodeId id = 0; id < n; ++id)
    if (action[id] == Action::Keep && dfg::isSchedulable(g.node(id).kind))
      for (NodeId in : g.node(id).inputs)
        if (g.node(in).kind == OpKind::Const) action[in] = Action::Keep;

  // Rebuild in original id order; that order is topological, and every
  // operand of a kept op is itself kept or folded, so the remap is total.
  dfg::Dfg fixed(g.name());
  std::vector<NodeId> remap(n, dfg::kNoNode);
  for (NodeId id = 0; id < n; ++id) {
    if (action[id] == Action::Drop) continue;
    dfg::Node node = g.node(id);
    node.id = dfg::kNoNode;  // reassigned by addNode
    if (action[id] == Action::Fold) {
      const sim::Word folded = analysis.constants[id].value;
      node.kind = OpKind::Const;
      node.inputs.clear();
      node.cycles = 1;
      node.delayNs = -1.0;
      node.branchPath.clear();  // a constant holds on every execution path
      node.constValue = static_cast<long>(folded);
    } else {
      for (NodeId& in : node.inputs) in = remap[in];
    }
    remap[id] = fixed.addNode(std::move(node));
  }
  for (const auto& [id, ext] : g.outputs())
    if (id < n && remap[id] != dfg::kNoNode) fixed.markOutput(remap[id], ext);
  fixed.freeze();
  return fixed;
}

}  // namespace mframe::analysis::dataflow
