#include "rtl/controller.h"

#include <algorithm>

#include "trace/trace.h"
#include "util/strings.h"

namespace mframe::rtl {

ControllerFsm buildController(const Datapath& d) {
  const trace::Span span("rtl.controller");
  ControllerFsm f;
  const dfg::Dfg& g = *d.graph;
  f.numSteps = d.schedule.numSteps();

  // A port's select: the mux input routing `signal` into `op`, or -1 when
  // the port has no mux or the op reads nothing through it.
  const auto selectOf = [](const alloc::PortWiring& w, dfg::NodeId op,
                           dfg::NodeId signal) {
    const auto it = w.selectOf.find({op, signal});
    return it != w.selectOf.end() && w.sources.size() > 1
               ? static_cast<int>(it->second)
               : -1;
  };
  for (const AluInstance& a : d.alus) {
    const auto ai = static_cast<std::size_t>(a.index);
    for (dfg::NodeId op : a.ops) {
      const alloc::MuxArrangement::Ports p =
          d.arrangement[ai].portSignals(g.node(op));
      MicroOp m;
      m.step = d.schedule.stepOf(op);
      m.alu = a.index;
      m.op = op;
      m.leftSelect = selectOf(d.leftPort[ai], op, p.left);
      m.rightSelect = selectOf(d.rightPort[ai], op, p.right);
      f.microOps.push_back(m);
    }
  }
  std::sort(f.microOps.begin(), f.microOps.end(),
            [](const MicroOp& a, const MicroOp& b) {
              return std::tie(a.step, a.alu, a.op) < std::tie(b.step, b.alu, b.op);
            });

  // Register loads: each stored signal is latched at the end of its birth
  // step; primary inputs preload at step 0.
  for (const auto& [signal, reg] : d.regOfSignal) {
    const dfg::Node& n = g.node(signal);
    RegLoad rl;
    rl.reg = reg;
    rl.signal = signal;
    if (n.kind == dfg::OpKind::Input) {
      rl.step = 0;
      rl.fromAlu = -1;
    } else {
      rl.step = d.schedule.endStepOf(signal);
      auto it = d.aluOf.find(signal);
      rl.fromAlu = it == d.aluOf.end() ? -1 : it->second;
    }
    f.regLoads.push_back(rl);
  }
  std::sort(f.regLoads.begin(), f.regLoads.end(),
            [](const RegLoad& a, const RegLoad& b) {
              return std::tie(a.step, a.reg) < std::tie(b.step, b.reg);
            });

  // Synthesized controllers step linearly: reset flows into step 1, each
  // step into the next, and the last step halts (no out-edge).
  for (int s = 0; s < f.numSteps; ++s) f.edges.push_back({s, s + 1});
  return f;
}

std::vector<int> ControllerFsm::successorsOf(int s) const {
  if (edges.empty())
    return s >= 0 && s < numSteps ? std::vector<int>{s + 1}
                                  : std::vector<int>{};
  std::vector<int> out;
  for (const StepEdge& e : edges) {
    if (e.from != s) continue;
    if (e.to < 1 || e.to > numSteps) continue;  // 0 / out-of-range = halt
    if (std::find(out.begin(), out.end(), e.to) == out.end())
      out.push_back(e.to);
  }
  return out;
}

bool ControllerFsm::linearControl() const {
  if (edges.empty()) return true;
  for (int s = 0; s <= numSteps; ++s) {
    const std::vector<int> succ = successorsOf(s);
    if (s < numSteps) {
      if (succ.size() != 1 || succ.front() != s + 1) return false;
    } else if (!succ.empty()) {
      return false;
    }
  }
  return true;
}

// Filters the flat vectors per state rather than using StepIndex: the FSM
// alone has no datapath to index, and only `--controller` prints this.
std::string ControllerFsm::toString(const dfg::Dfg& g) const {
  std::string out = util::format("controller FSM, %d states\n", numSteps);
  for (int s = 0; s <= numSteps; ++s) {
    std::string line;
    for (const MicroOp& m : microOps)
      if (m.step == s)
        line += util::format("  ALU%d <= %s(%s) sel=(%d,%d)", m.alu,
                             std::string(dfg::kindName(g.node(m.op).kind)).c_str(),
                             g.node(m.op).name.c_str(), m.leftSelect,
                             m.rightSelect);
    for (const RegLoad& r : regLoads)
      if (r.step == s)
        line += util::format("  R%d <= %s", r.reg, g.node(r.signal).name.c_str());
    if (!line.empty()) out += util::format("state %2d:%s\n", s, line.c_str());
  }
  if (!linearControl()) {
    out += "transfers:";
    for (const StepEdge& e : edges)
      out += e.cond == dfg::kNoNode
                 ? util::format(" %d->%d", e.from, e.to)
                 : util::format(" %d->%d[%s]", e.from, e.to,
                                g.node(e.cond).name.c_str());
    out += "\n";
  }
  return out;
}

}  // namespace mframe::rtl
