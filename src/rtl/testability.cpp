#include "rtl/testability.h"

#include <set>

#include "util/strings.h"

namespace mframe::rtl {

TestabilityReport analyzeTestability(const Datapath& d) {
  TestabilityReport rep;
  const dfg::Dfg& g = *d.graph;

  std::set<int> loopAlus;
  std::set<int> loopRegs;
  std::set<std::pair<int, int>> crossEdges;
  for (const AluInstance& a : d.alus) {
    for (dfg::NodeId op : a.ops) {
      for (dfg::NodeId p : g.opPreds(op)) {
        const int alu = d.aluIndexOf(p);
        if (alu < 0) continue;
        if (alu == a.index) {
          ++rep.selfLoopPairs;
          loopAlus.insert(a.index);
          const int reg = d.registerOf(p);
          if (reg >= 0) loopRegs.insert(reg);
        } else {
          crossEdges.insert({alu, a.index});
        }
      }
    }
  }
  rep.selfLoopAlus = static_cast<int>(loopAlus.size());
  rep.selfLoopRegisters = static_cast<int>(loopRegs.size());
  rep.crossAluEdges = static_cast<int>(crossEdges.size());
  return rep;
}

std::string TestabilityReport::toString() const {
  return util::format(
      "%d self-loop pair(s) across %d ALU(s), %d self-loop register(s), "
      "%d cross-ALU edge(s) -> %s",
      selfLoopPairs, selfLoopAlus, selfLoopRegisters, crossAluEdges,
      selfTestable() ? "self-testable (style-2 clean)"
                     : "NOT self-testable");
}

}  // namespace mframe::rtl
