#include "rtl/step_index.h"

#include <algorithm>
#include <tuple>

namespace mframe::rtl {

StepIndex::StepIndex(const Datapath& dp, const ControllerFsm& f)
    : d(&dp), fsm(&f), numRegs(dp.regs.count()) {
  const auto n = static_cast<std::size_t>(f.numSteps) + 1;
  issues.resize(n);
  loads.resize(n);
  for (const MicroOp& m : f.microOps)
    if (m.step >= 0 && m.step <= f.numSteps)
      issues[static_cast<std::size_t>(m.step)].push_back(&m);
  for (const RegLoad& rl : f.regLoads)
    if (rl.step >= 0 && rl.step <= f.numSteps)
      loads[static_cast<std::size_t>(rl.step)].push_back(&rl);
  // Canonical row order, independent of how .bind edits shuffled the
  // source vectors: grouping and report order depend on it.
  for (auto& row : issues)
    std::sort(row.begin(), row.end(), [](const MicroOp* a, const MicroOp* b) {
      return std::tie(a->alu, a->op) < std::tie(b->alu, b->op);
    });
  for (auto& row : loads)
    std::sort(row.begin(), row.end(), [](const RegLoad* a, const RegLoad* b) {
      return std::tie(a->reg, a->signal) < std::tie(b->reg, b->signal);
    });
}

const alloc::Source* StepIndex::wiredSource(dfg::NodeId op,
                                            dfg::NodeId signal) const {
  const int alu = d->aluIndexOf(op);
  if (alu < 0) return nullptr;
  const auto ai = static_cast<std::size_t>(alu);
  const alloc::Source* s = d->leftPort[ai].sourceFor(op, signal);
  if (s == nullptr) s = d->rightPort[ai].sourceFor(op, signal);
  return s;
}

std::vector<PortRead> readsOf(const StepIndex& idx, const MicroOp& m) {
  std::vector<PortRead> out;
  const auto alu = static_cast<std::size_t>(m.alu);
  const alloc::MuxArrangement::Ports p =
      idx.d->arrangement[alu].portSignals(idx.d->graph->node(m.op));

  const auto resolve = [&](const alloc::PortWiring& w, int sel,
                           dfg::NodeId sig, const char* port) {
    const alloc::Source* src = nullptr;
    int eff = -1;
    if (w.sources.size() == 1) {
      src = &w.sources[0];
    } else if (!w.sources.empty()) {
      eff = sel;
      if (sel >= 0 && static_cast<std::size_t>(sel) < w.sources.size())
        src = &w.sources[static_cast<std::size_t>(sel)];
    }
    if (src != nullptr) out.push_back({port, sig, src, eff});
  };

  if (p.left != dfg::kNoNode)
    resolve(idx.d->leftPort[alu], m.leftSelect, p.left, "left");
  if (p.right != dfg::kNoNode)
    resolve(idx.d->rightPort[alu], m.rightSelect, p.right, "right");
  return out;
}

}  // namespace mframe::rtl
