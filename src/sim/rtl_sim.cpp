#include "sim/rtl_sim.h"

#include <algorithm>

#include "util/strings.h"

namespace mframe::sim {

namespace {

using dfg::NodeId;

}  // namespace

RtlSimResult simulateRtl(const rtl::Datapath& d, const rtl::ControllerFsm& fsm,
                         const std::map<std::string, Word>& inputs, int width,
                         SimTrace* trace) {
  RtlSimResult res;
  const dfg::Dfg& g = *d.graph;
  const Word mask = maskFor(width);

  std::map<int, Word> regfile;
  std::map<NodeId, Word> valueOf;  // computed operation results (by signal)

  auto inputValue = [&](NodeId id) {
    auto it = inputs.find(g.node(id).name);
    return (it == inputs.end() ? Word{0} : it->second) & mask;
  };

  // Step 0: primary-input preloads.
  for (const rtl::RegLoad& rl : fsm.regLoads) {
    if (rl.step != 0) continue;
    if (g.node(rl.signal).kind != dfg::OpKind::Input) {
      res.error = "step-0 load of non-input signal '" + g.node(rl.signal).name + "'";
      return res;
    }
    regfile[rl.reg] = inputValue(rl.signal);
  }
  if (trace)
    for (const auto& [reg, value] : regfile)
      trace->record(util::format("R%d", reg), 0, value);

  // Resolve one operand of `op` through the real port wiring.
  auto readOperand = [&](const rtl::MicroOp& m, bool leftPort, NodeId signal,
                         Word& out) -> std::optional<std::string> {
    const auto ai = static_cast<std::size_t>(m.alu);
    const alloc::PortWiring& w = leftPort ? d.leftPort[ai] : d.rightPort[ai];
    const alloc::Source* wired = w.sourceFor(m.op, signal);
    if (wired == nullptr)
      return "no wiring for operand '" + g.node(signal).name + "' of '" +
             g.node(m.op).name + "'";
    const alloc::Source& src = *wired;
    switch (src.kind) {
      case alloc::Source::Kind::Register: {
        auto it = regfile.find(src.index);
        if (it == regfile.end())
          return util::format("read of never-written register R%d", src.index);
        out = it->second;
        return std::nullopt;
      }
      case alloc::Source::Kind::AluOut: {
        // Chained combinational read of a value produced earlier this step.
        auto it = valueOf.find(signal);
        if (it == valueOf.end()) return std::string("chained value not ready");
        out = it->second;
        return std::nullopt;
      }
      case alloc::Source::Kind::PrimaryInput:
        out = inputValue(src.node);
        return std::nullopt;
      case alloc::Source::Kind::Constant:
        out = static_cast<Word>(g.node(src.node).constValue) & mask;
        return std::nullopt;
    }
    return std::string("unreachable");
  };

  for (int step = 1; step <= fsm.numSteps; ++step) {
    // Collect this step's issues; evaluate in chain-dependency order (an op
    // whose chained operand is not computed yet is retried after the rest).
    std::vector<const rtl::MicroOp*> todo;
    for (const rtl::MicroOp& m : fsm.microOps)
      if (m.step == step) todo.push_back(&m);

    while (!todo.empty()) {
      bool progress = false;
      std::vector<const rtl::MicroOp*> next;
      for (const rtl::MicroOp* m : todo) {
        const dfg::Node& n = g.node(m->op);
        const auto& arr = d.arrangement[static_cast<std::size_t>(m->alu)];
        const bool swap = arr.isSwapped(m->op);
        Word a = 0, b = 0;
        std::optional<std::string> err;
        bool deferred = false;
        if (!n.inputs.empty()) {
          const NodeId l =
              swap && n.inputs.size() == 2 ? n.inputs[1] : n.inputs[0];
          err = readOperand(*m, /*leftPort=*/true, l, a);
          if (err && *err == "chained value not ready") {
            next.push_back(m);
            deferred = true;
          }
          if (!deferred && !err && n.inputs.size() >= 2) {
            const NodeId r = swap ? n.inputs[0] : n.inputs[1];
            err = readOperand(*m, /*leftPort=*/false, r, b);
            if (err && *err == "chained value not ready") {
              next.push_back(m);
              deferred = true;
            }
          }
        }
        if (deferred) continue;
        if (err) {
          res.error = *err;
          return res;
        }
        valueOf[m->op] = evalOp(n.kind, a, b, width);
        if (trace) trace->record(n.name, step, valueOf[m->op]);
        progress = true;
      }
      if (!progress) {
        res.error = util::format("chained deadlock in step %d", step);
        return res;
      }
      todo = std::move(next);
    }

    // End of step: latch completed values into their registers.
    for (const rtl::RegLoad& rl : fsm.regLoads) {
      if (rl.step != step) continue;
      auto it = valueOf.find(rl.signal);
      if (it == valueOf.end()) {
        res.error = util::format("register load of uncomputed signal '%s' at step %d",
                                 g.node(rl.signal).name.c_str(), step);
        return res;
      }
      regfile[rl.reg] = it->second;
      if (trace) trace->record(util::format("R%d", rl.reg), step, it->second);
    }
  }
  if (trace) trace->finalize(fsm.numSteps + 1);

  // Primary outputs, wired exactly like the Verilog writer.
  for (const auto& [id, ext] : g.outputs()) {
    const int reg = d.registerOf(id);
    if (reg >= 0) {
      res.outputs[ext] = regfile[reg];
    } else if (valueOf.count(id)) {
      res.outputs[ext] = valueOf[id];
    } else if (g.node(id).kind == dfg::OpKind::Input) {
      res.outputs[ext] = inputValue(id);
    } else {
      res.error = "output '" + ext + "' was never computed";
      return res;
    }
  }
  res.registersAtEnd = regfile;
  res.stepsExecuted = fsm.numSteps;
  res.ok = true;
  return res;
}

}  // namespace mframe::sim
