#include "rtl/datapath.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "trace/trace.h"
#include "util/strings.h"

namespace mframe::rtl {

std::string Datapath::aluSummary() const {
  // Group identical module signatures: "2(+-); (*)".
  std::map<std::string, int> bySig;
  for (const AluInstance& a : alus) ++bySig[lib->module(a.module).signature()];
  std::vector<std::string> parts;
  for (const auto& [sig, count] : bySig)
    parts.push_back(count > 1 ? util::format("%d%s", count, sig.c_str()) : sig);
  return util::join(parts, "; ");
}

Datapath buildDatapath(const dfg::Dfg& g, const celllib::CellLibrary& lib,
                       const sched::Schedule& s,
                       std::vector<AluInstance> alus) {
  const std::vector<alloc::Lifetime> lifetimes = alloc::computeLifetimes(g, s);
  return buildDatapath(g, lib, s, std::move(alus),
                       alloc::allocateRegisters(lifetimes));
}

Datapath buildDatapath(const dfg::Dfg& g, const celllib::CellLibrary& lib,
                       const sched::Schedule& s, std::vector<AluInstance> alus,
                       alloc::RegAllocation regs) {
  const trace::Span span("rtl.datapath");
  Datapath d;
  d.schedule = s;
  d.graph = d.schedule.sharedGraph();  // identical snapshot as the schedule's
  d.lib = std::make_shared<celllib::CellLibrary>(lib);
  d.alus = std::move(alus);
  for (const AluInstance& a : d.alus)
    for (dfg::NodeId op : a.ops) d.aluOf[op] = a.index;

  // Registers (Section 5.8).
  d.lifetimes = alloc::computeLifetimes(g, s);
  d.regs = std::move(regs);
  for (std::size_t r = 0; r < d.regs.registers.size(); ++r)
    for (std::size_t i : d.regs.registers[r])
      d.regOfSignal[d.lifetimes[i].producer] = static_cast<int>(r);

  // Mux arrangement per ALU (Section 5.6), then physical wiring with
  // interconnect sharing (Section 5.7).
  const alloc::SourceResolver resolver(g, s, d.lifetimes, d.regs, d.aluOf);
  d.arrangement.reserve(d.alus.size());
  for (const AluInstance& a : d.alus) {
    d.arrangement.push_back(alloc::arrangeInputs(g, a.ops));
    const alloc::MuxArrangement& arr = d.arrangement.back();

    std::vector<std::pair<dfg::NodeId, dfg::NodeId>> leftReads, rightReads;
    for (dfg::NodeId op : a.ops) {
      const alloc::MuxArrangement::Ports p = arr.portSignals(g.node(op));
      if (p.left != dfg::kNoNode) leftReads.emplace_back(op, p.left);
      if (p.right != dfg::kNoNode) rightReads.emplace_back(op, p.right);
    }
    d.leftPort.push_back(alloc::wirePort(resolver, leftReads));
    d.rightPort.push_back(alloc::wirePort(resolver, rightReads));
  }
  return d;
}

std::vector<AluInstance> bindByColumns(const dfg::Dfg& g,
                                       const celllib::CellLibrary& lib,
                                       const sched::Schedule& s) {
  std::vector<AluInstance> alus;
  std::map<std::pair<dfg::FuType, int>, std::size_t> instanceOf;
  for (const dfg::Node& n : g.nodes()) {
    if (!dfg::isSchedulable(n.kind) || !s.isPlaced(n.id)) continue;
    const dfg::FuType t = dfg::fuTypeOf(n.kind);
    const auto key = std::make_pair(t, s.columnOf(n.id));
    auto it = instanceOf.find(key);
    if (it == instanceOf.end()) {
      const std::optional<celllib::ModuleId> m = lib.cheapestFor(t);
      if (!m)
        throw std::runtime_error("cell library has no module for FU type '" +
                                 std::string(dfg::fuTypeName(t)) + "'");
      AluInstance a;
      a.module = *m;
      a.index = static_cast<int>(alus.size());
      alus.push_back(std::move(a));
      it = instanceOf.emplace(key, alus.size() - 1).first;
    }
    alus[it->second].ops.push_back(n.id);
  }
  return alus;
}

std::vector<DeclaredWidth> declaredRegisterWidths(const Datapath& d) {
  std::vector<DeclaredWidth> w(d.regs.count());
  // regOfSignal is ordered by NodeId, so ties resolve to the oldest tenant
  // deterministically.
  for (const auto& [sig, reg] : d.regOfSignal) {
    if (reg < 0 || static_cast<std::size_t>(reg) >= w.size()) continue;
    const int dw = d.graph->node(sig).width;
    if (dw > 0 && dw > w[static_cast<std::size_t>(reg)].width)
      w[static_cast<std::size_t>(reg)] = {dw, sig};
  }
  return w;
}

std::vector<DeclaredWidth> declaredAluWidths(const Datapath& d) {
  std::vector<DeclaredWidth> w(d.alus.size());
  for (std::size_t a = 0; a < d.alus.size(); ++a)
    for (dfg::NodeId op : d.alus[a].ops) {
      const int dw = d.graph->node(op).width;
      if (dw > 0 && dw > w[a].width) w[a] = {dw, op};
    }
  return w;
}

}  // namespace mframe::rtl
