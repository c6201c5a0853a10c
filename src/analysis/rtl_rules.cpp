#include "analysis/rtl_rules.h"

#include <algorithm>
#include <map>
#include <set>

#include "analysis/rules.h"
#include "trace/trace.h"
#include "util/strings.h"

namespace mframe::analysis {

namespace {
using dfg::NodeId;
}  // namespace

LintReport lintDatapath(const rtl::Datapath& d, const sched::Constraints& c,
                        rtl::DesignStyle style) {
  const trace::Span span("verify.datapath");
  LintReport r;
  const dfg::Dfg& g = *d.graph;

  // -- RTL001..RTL004: binding ----------------------------------------------
  std::map<NodeId, int> seen;
  for (const rtl::AluInstance& a : d.alus) {
    const celllib::Module& m = d.lib->module(a.module);
    for (NodeId op : a.ops) {
      if (seen.count(op))
        r.add(diag(kRtlDoubleBinding, EntityKind::Alu,
                   at(g.node(op).name, -1, a.index),
                   util::format("op '%s' bound to ALU%d and ALU%d",
                                g.node(op).name.c_str(), seen[op], a.index),
                   "bind every operation to exactly one ALU"));
      seen[op] = a.index;
      if (!dfg::isSchedulable(g.node(op).kind))
        r.add(diag(kRtlNonOpBound, EntityKind::Alu,
                   at(g.node(op).name, -1, a.index),
                   util::format("non-operation '%s' bound to an ALU",
                                g.node(op).name.c_str())));
      else if (!m.supports(dfg::fuTypeOf(g.node(op).kind)))
        r.add(diag(kRtlUnsupportedOp, EntityKind::Alu,
                   at(g.node(op).name, -1, a.index, m.signature()),
                   util::format("ALU%d (%s) cannot perform '%s'", a.index,
                                m.signature().c_str(), g.node(op).name.c_str()),
                   "bind the op to a module with the matching capability"));
    }
  }
  for (NodeId op : g.operations())
    if (!seen.count(op))
      r.add(diag(kRtlUnboundOp, EntityKind::Node, at(g.node(op).name),
                 util::format("op '%s' is not bound to any ALU",
                              g.node(op).name.c_str())));
  if (!r.empty()) return r;  // later checks assume a total binding

  // -- RTL005: ALU occupancy ------------------------------------------------
  std::uint64_t cells = 0;
  for (const rtl::AluInstance& a : d.alus) {
    const bool pipelined = d.lib->module(a.module).stages > 1;
    for (const auto& [i, j] :
         opClashes(d.schedule, a.ops, pipelined, c.latency, cells)) {
      const dfg::Node& x = g.node(a.ops[i]);
      const dfg::Node& y = g.node(a.ops[j]);
      const bool self = i == j;
      r.add(diag(kRtlAluOverlap, EntityKind::Alu,
                 at(x.name, d.schedule.stepOf(x.id), a.index,
                    self ? "" : y.name),
                 util::format("ALU%d executes '%s'", a.index, x.name.c_str()) +
                     (self ? ", which " + selfOverlap(x, c.latency)
                           : util::format(" and '%s' concurrently",
                                          y.name.c_str())),
                 self ? "bind the op to a pipelined module or raise the latency"
                      : "rebind one operation or reschedule it"));
    }
  }

  // -- RTL006: style 2, no self loop around ALUs ----------------------------
  if (style == rtl::DesignStyle::NoSelfLoop) {
    for (const rtl::AluInstance& a : d.alus) {
      const std::set<NodeId> inAlu(a.ops.begin(), a.ops.end());
      for (NodeId op : a.ops)
        for (NodeId p : g.opPreds(op))
          if (inAlu.count(p))
            r.add(diag(kRtlSelfLoop, EntityKind::Alu,
                       at(g.node(op).name, -1, a.index, g.node(p).name),
                       util::format("style-2 violation: '%s' and its predecessor "
                                    "'%s' share ALU%d",
                                    g.node(op).name.c_str(),
                                    g.node(p).name.c_str(), a.index),
                       "separate dependent operations onto distinct ALUs"));
    }
  }

  // -- RTL007/RTL008: registers --------------------------------------------
  // A register holds a signal in steps (birth, death], and a signal latched
  // but never read still takes the step after its latch; `overlaps` is the
  // exact test among the lifetimes that share a step.
  for (std::size_t reg = 0; reg < d.regs.registers.size(); ++reg) {
    const auto& packed = d.regs.registers[reg];
    std::vector<CellUse> steps;
    for (std::size_t i = 0; i < packed.size(); ++i) {
      const alloc::Lifetime& lt = d.lifetimes[packed[i]];
      for (int st = lt.birth + 1; st <= std::max(lt.death, lt.birth + 1); ++st)
        steps.emplace_back(st, i);
    }
    const auto overlap = [&](std::size_t i, std::size_t j) {
      return d.lifetimes[packed[i]].overlaps(d.lifetimes[packed[j]]);
    };
    for (const auto& [i, j] : clashingPairs(std::move(steps), overlap, cells)) {
      const std::string& x = g.node(d.lifetimes[packed[i]].producer).name;
      const std::string& y = g.node(d.lifetimes[packed[j]].producer).name;
      r.add(diag(kRtlRegisterOverlap, EntityKind::Register,
                 at(x, -1, static_cast<int>(reg), y),
                 util::format("register R%zu holds overlapping signals '%s' "
                              "and '%s'", reg, x.c_str(), y.c_str()),
                 "repack the lifetimes into disjoint registers"));
    }
  }
  trace::bump(trace::Counter::VerifyCells, cells);
  for (const alloc::Lifetime& lt : d.lifetimes)
    if (lt.needsRegister && d.registerOf(lt.producer) < 0)
      r.add(diag(kRtlMissingRegister, EntityKind::Node,
                 at(g.node(lt.producer).name),
                 util::format("signal '%s' crosses steps but has no register",
                              g.node(lt.producer).name.c_str()),
                 "allocate a register for every cross-step lifetime"));

  // -- RTL009: wiring (unconnected mux inputs) ------------------------------
  for (const rtl::AluInstance& a : d.alus) {
    const auto ai = static_cast<std::size_t>(a.index);
    for (NodeId op : a.ops) {
      const dfg::Node& n = g.node(op);
      const alloc::MuxArrangement::Ports p = d.arrangement[ai].portSignals(n);
      const auto check = [&](const alloc::PortWiring& w, NodeId signal,
                             const char* port) {
        if (signal == dfg::kNoNode || w.selectFor(op, signal) >= 0) return;
        r.add(diag(kRtlUnconnectedPort, EntityKind::Port,
                   at(n.name, -1, a.index, g.node(signal).name),
                   util::format("ALU%d %s port cannot deliver '%s' to '%s'",
                                a.index, port, g.node(signal).name.c_str(),
                                n.name.c_str()),
                   "rewire the port so every operand has a mux input"));
      };
      check(d.leftPort[ai], p.left, "left");
      check(d.rightPort[ai], p.right, "right");
    }
  }
  return r;
}

LintReport lintBusPlan(const rtl::Datapath& d, const rtl::ControllerFsm& fsm,
                       const rtl::BusPlan& plan) {
  LintReport r;
  const std::vector<int> demand = rtl::busDemandPerStep(d, fsm);

  // RTL010: any step whose simultaneous distinct sources exceed the bus
  // count would force one bus to carry two drivers at once.
  int peak = 0;
  for (int step = 1; step < static_cast<int>(demand.size()); ++step) {
    const int k = demand[static_cast<std::size_t>(step)];
    peak = std::max(peak, k);
    if (k > plan.busCount)
      r.add(diag(kRtlBusContention, EntityKind::Bus,
                 at("", step, plan.busCount),
                 util::format("step %d needs %d simultaneous sources but the "
                              "plan has %d bus(es): some bus is driven by "
                              "multiple sources", step, k, plan.busCount),
                 "provision at least the peak per-step source count"));
  }

  // RTL011: buses beyond the peak demand are never driven in any step.
  for (int b = peak; b < plan.busCount; ++b)
    r.add(diag(kRtlBusIdle, EntityKind::Bus, at("", -1, b),
               util::format("bus %d is driven by zero sources in every step", b),
               "drop the idle bus to save wire area"));
  return r;
}

LintReport lintMicrocode(const rtl::Datapath& d, const rtl::ControllerFsm& fsm,
                         const rtl::MicrocodeRom& rom) {
  LintReport r;

  // RTL012: fields must drive existing ALUs / registers.
  using Kind = rtl::MicrocodeField::Kind;
  for (const rtl::MicrocodeField& f : rom.fields) {
    // Sequencer fields reference FSM states, not datapath units.
    if (f.kind == Kind::Next || f.kind == Kind::AltNext) continue;
    const std::size_t units =
        f.kind == Kind::RegLoad ? d.regs.count() : d.alus.size();
    if (f.unit >= 0 && static_cast<std::size_t>(f.unit) < units) continue;
    r.add(diag(kRtlBadFieldRef, EntityKind::Field,
               at("", -1, f.unit, f.name()),
               util::format("microcode field '%s' references a nonexistent "
                            "datapath component", f.name().c_str()),
               "regenerate the ROM from the current datapath"));
  }

  // RTL013: shape and width consistency.
  if (rom.words != fsm.numSteps ||
      rom.rows.size() != static_cast<std::size_t>(rom.words))
    r.add(diag(kRtlFieldOverflow, EntityKind::Design, {},
               util::format("ROM has %zu row(s) for %d word(s) over %d FSM "
                            "step(s)", rom.rows.size(), rom.words, fsm.numSteps)));
  for (std::size_t row = 0; row < rom.rows.size(); ++row) {
    if (rom.rows[row].size() != rom.fields.size()) {
      r.add(diag(kRtlFieldOverflow, EntityKind::Field,
                 at("", static_cast<int>(row) + 1),
                 util::format("row %zu has %zu value(s) for %zu field(s)", row + 1,
                              rom.rows[row].size(), rom.fields.size())));
      continue;
    }
    for (std::size_t f = 0; f < rom.fields.size(); ++f) {
      const int v = rom.rows[row][f];
      if (v < -1 || (v >= 0 && v >= (1 << rom.fields[f].bits)))
        r.add(diag(kRtlFieldOverflow, EntityKind::Field,
                   at("", static_cast<int>(row) + 1, -1, rom.fields[f].name()),
                   util::format("value %d does not fit field '%s' (%d bit(s))",
                                v, rom.fields[f].name().c_str(),
                                rom.fields[f].bits)));
    }
  }
  return r;
}

}  // namespace mframe::analysis
