#include "analysis/timing/sta.h"

#include <algorithm>

#include "analysis/rules.h"
#include "trace/trace.h"
#include "util/strings.h"

namespace mframe::analysis::timing {

namespace {

using alloc::Source;
using dfg::NodeId;

/// 2:1 stages of a tree mux with `inputs` data inputs (0 for a plain wire).
int muxLevels(std::size_t inputs) {
  int levels = 0;
  for (std::size_t reach = 1; reach < inputs; reach <<= 1) ++levels;
  return levels;
}

/// Everything the walker accumulates per operation.
struct OpTiming {
  double settleNs = 0;  ///< result-valid time within the op's END step
  double totalNs = 0;   ///< full combinational time from its start step
  int chainDepth = 1;
  std::vector<std::string> provenance;  ///< source ... ALU, outermost first
};

struct Walker {
  const rtl::Datapath& d;
  const dfg::Dfg& g;
  const TimingOptions& opts;
  std::vector<OpTiming> timing;

  explicit Walker(const rtl::Datapath& dp, const TimingOptions& o)
      : d(dp), g(*dp.graph), opts(o), timing(dp.graph->size()) {}

  /// The port wiring serving operand `signal` of `reader` on ALU `alu`.
  /// Operand 0 prefers the left port so x*x and swapped commutative
  /// operands both land on the physical mux that actually carries them.
  /// Deliberately not MuxArrangement::portSignals: timing finds each
  /// operand where the wiring actually carries it (its natural port first,
  /// then the other), so it also times wiring that disagrees with the
  /// arrangement, and the port it names is part of the analyze and tune
  /// reports.
  const alloc::PortWiring* portFor(int alu, NodeId reader, NodeId signal,
                                   std::size_t operandIndex,
                                   const char** sideName) const {
    const alloc::PortWiring* first = &d.leftPort[static_cast<std::size_t>(alu)];
    const alloc::PortWiring* second = &d.rightPort[static_cast<std::size_t>(alu)];
    const char* firstName = "left";
    const char* secondName = "right";
    if (operandIndex == 1) {
      std::swap(first, second);
      std::swap(firstName, secondName);
    }
    if (first->sourceFor(reader, signal)) {
      *sideName = firstName;
      return first;
    }
    if (second->sourceFor(reader, signal)) {
      *sideName = secondName;
      return second;
    }
    *sideName = firstName;
    return nullptr;
  }

  void walkOp(NodeId id) {
    const dfg::Node& node = g.node(id);
    const int alu = d.aluOf.at(id);
    const celllib::Module& module =
        d.lib->module(d.alus[static_cast<std::size_t>(alu)].module);
    const DelayModel& m = opts.model;
    OpTiming& t = timing[id];

    double worstArrival = 0.0;
    std::vector<std::string> worstProv;
    int worstDepth = 0;
    bool haveOperand = false;
    for (std::size_t i = 0; i < node.inputs.size(); ++i) {
      const NodeId p = node.inputs[i];
      const char* side = "left";
      const alloc::PortWiring* port = portFor(alu, id, p, i, &side);
      const Source* src = port ? port->sourceFor(id, p) : nullptr;

      double arrival = 0.0;
      int depth = 0;
      std::vector<std::string> prov;
      if (!src) {
        // Unwired reads are RTL009's problem; assume a registered source so
        // the walk stays total.
        arrival = m.regClkToQNs + m.busNs;
        prov.push_back(util::format(
            "unwired read of '%s' (assumed registered, +%.1f ns)",
            g.node(p).name.c_str(), arrival));
      } else {
        switch (src->kind) {
          case Source::Kind::Constant:
            prov.push_back(util::format("constant %ld hardwired to ALU%d %s port",
                                        g.node(p).constValue, alu, side));
            break;
          case Source::Kind::PrimaryInput:
            arrival = m.busNs;
            prov.push_back(util::format("primary input '%s'",
                                        g.node(p).name.c_str()));
            prov.push_back(util::format(
                "bus: input line to ALU%d %s port (+%.1f ns)", alu, side,
                m.busNs));
            break;
          case Source::Kind::Register:
            arrival = m.regClkToQNs + m.busNs;
            prov.push_back(util::format(
                "register r%d ('%s') clk-to-q +%.1f ns at step %d start",
                src->index, g.node(p).name.c_str(), m.regClkToQNs,
                d.schedule.stepOf(id)));
            prov.push_back(util::format(
                "bus: register r%d line to ALU%d %s port (+%.1f ns)",
                src->index, alu, side, m.busNs));
            break;
          case Source::Kind::AluOut:
            // Chained: the producer's combinational result this same step.
            arrival = timing[p].settleNs + m.busNs;
            depth = timing[p].chainDepth;
            prov = timing[p].provenance;
            prov.push_back(util::format(
                "bus: ALU%d output chained to ALU%d %s port (+%.1f ns)",
                src->index, alu, side, m.busNs));
            break;
        }
      }
      const int levels = port ? muxLevels(port->sources.size()) : 0;
      const double muxNs = levels * m.muxLevelNs;
      arrival += muxNs;
      prov.push_back(util::format(
          "mux: ALU%d %s port (%zu input(s), %d level(s), +%.1f ns)", alu,
          side, port ? port->sources.size() : std::size_t{1}, levels, muxNs));
      if (!haveOperand || arrival > worstArrival) {
        haveOperand = true;
        worstArrival = arrival;
        worstProv = std::move(prov);
        worstDepth = depth;
      }
    }

    t.totalNs = worstArrival + module.delayNs;
    t.chainDepth = worstDepth + 1;
    t.provenance = std::move(worstProv);
    t.provenance.push_back(util::format(
        "ALU%d %s computes '%s' (%s, +%.1f ns) — valid %.1f ns into the path",
        alu, module.signature().c_str(), node.name.c_str(),
        std::string(dfg::kindName(node.kind)).c_str(), module.delayNs,
        t.totalNs));
    // A multicycle op spends whole earlier steps; only the residue lands in
    // its final step, where chained consumers may pick the value up.
    const double earlier = (node.cycles - 1) * opts.clockNs;
    t.settleNs = std::max(0.0, t.totalNs - earlier);
  }
};

}  // namespace

TimingReport analyzeTiming(const rtl::Datapath& d, const TimingOptions& opts) {
  const trace::Span span("sta");
  const dfg::Dfg& g = *d.graph;
  TimingReport r;
  r.clockNs = opts.clockNs;
  r.clockSet = opts.clockSet;

  std::vector<char> isOutput(g.size(), 0);
  for (const auto& [id, ext] : g.outputs())
    if (id < g.size()) isOutput[id] = 1;

  Walker walker(d, opts);
  // Node ids are topological, so chained producers settle before readers.
  for (NodeId id = 0; id < g.size(); ++id)
    if (dfg::isSchedulable(g.node(id).kind) && d.aluOf.count(id))
      walker.walkOp(id);

  const DelayModel& m = opts.model;
  bool haveWorst = false;
  for (NodeId id = 0; id < g.size(); ++id) {
    const dfg::Node& node = g.node(id);
    if (!dfg::isSchedulable(node.kind) || !d.aluOf.count(id)) continue;
    const bool latched = d.regOfSignal.count(id) > 0 || isOutput[id];
    if (!latched) continue;  // chained-only: audited through its consumers

    const OpTiming& t = walker.timing[id];
    EndpointTiming e;
    e.op = id;
    e.step = d.schedule.endStepOf(id);
    e.alu = d.aluOf.at(id);
    e.latched = true;
    e.chainDepth = t.chainDepth;
    e.requiredNs = node.cycles * opts.clockNs;
    e.arrivalNs = t.totalNs + m.busNs + m.setupNs;
    e.slackNs = e.requiredNs - e.arrivalNs;
    e.provenance = t.provenance;
    const int destReg = d.regOfSignal.count(id) ? d.regOfSignal.at(id) : -1;
    if (destReg >= 0)
      e.provenance.push_back(util::format(
          "bus: ALU%d output to register r%d (+%.1f ns)", e.alu, destReg,
          m.busNs));
    else
      e.provenance.push_back(util::format(
          "bus: ALU%d output to output port (+%.1f ns)", e.alu, m.busNs));
    e.provenance.push_back(util::format(
        "register %s latches '%s' at end of step %d (setup +%.1f ns) — "
        "arrival %.1f ns vs %.1f ns budget",
        destReg >= 0 ? util::format("r%d", destReg).c_str() : "out",
        node.name.c_str(), e.step, m.setupNs, e.arrivalNs, e.requiredNs));

    r.maxChainDepth = std::max(r.maxChainDepth, e.chainDepth);
    if (!haveWorst || e.slackNs < r.worstSlackNs) {
      haveWorst = true;
      r.worstSlackNs = e.slackNs;
      r.worstOp = id;
    }
    trace::bump(trace::Counter::StaEndpoints);
    r.endpoints.push_back(std::move(e));
  }

  // Diagnostics, in endpoint order.
  auto timDiag = [&](std::string_view rule, const EndpointTiming& e,
                     std::string message) {
    Diagnostic diag;
    diag.rule = std::string(rule);
    diag.severity = findRule(rule)->severity;
    diag.entity = EntityKind::Node;
    diag.loc.node = g.node(e.op).name;
    diag.loc.step = e.step;
    diag.loc.unit = e.alu;
    diag.message = std::move(message);
    diag.provenance = e.provenance;
    return diag;
  };

  const EndpointTiming* deepest = nullptr;
  for (const EndpointTiming& e : r.endpoints) {
    const dfg::Node& node = g.node(e.op);
    if (!opts.clockSet) {
      if (e.chainDepth >= 2 &&
          (!deepest || e.chainDepth > deepest->chainDepth))
        deepest = &e;
      continue;
    }
    if (e.slackNs < 0) {
      if (node.cycles > 1) {
        r.diagnostics.add(timDiag(
            kTimMulticycleUnderAlloc, e,
            util::format("'%s' needs %.1f ns but its %d allocated step(s) "
                         "give %.1f ns (slack %.1f ns)",
                         node.name.c_str(), e.arrivalNs, node.cycles,
                         e.requiredNs, e.slackNs)));
      } else {
        Diagnostic diag = timDiag(
            kTimClockViolation, e,
            util::format("register-to-register path of '%s' takes %.1f ns, "
                         "exceeding the %.1f ns clock (slack %.1f ns, %d "
                         "chained ALU(s))",
                         node.name.c_str(), e.arrivalNs, e.requiredNs,
                         e.slackNs, e.chainDepth));
        diag.fixit = "raise --clock, shorten the chain, or allocate more steps";
        r.diagnostics.add(std::move(diag));
      }
    } else if (e.arrivalNs > opts.nearCriticalFraction * e.requiredNs) {
      r.diagnostics.add(timDiag(
          kTimNearCritical, e,
          util::format("'%s' uses %.1f of %.1f ns (%.0f%% of the budget, "
                       "slack %.1f ns)",
                       node.name.c_str(), e.arrivalNs, e.requiredNs,
                       100.0 * e.arrivalNs / e.requiredNs, e.slackNs)));
    }
  }
  if (!opts.clockSet && deepest) {
    r.diagnostics.add(timDiag(
        kTimUnconstrainedChain, *deepest,
        util::format("'%s' ends a %d-ALU combinational chain (%.1f ns) but "
                     "no --clock constraint was given to audit it",
                     g.node(deepest->op).name.c_str(), deepest->chainDepth,
                     deepest->arrivalNs)));
  }
  return r;
}

std::string TimingReport::toString(const dfg::Dfg& g) const {
  std::string out = util::format(
      "timing: clock %.1f ns%s, %zu endpoint(s), max chain depth %d\n",
      clockNs, clockSet ? "" : " (unconstrained)", endpoints.size(),
      maxChainDepth);
  int worstStep = 0;
  for (const EndpointTiming& e : endpoints)
    if (e.op == worstOp) worstStep = e.step;
  if (worstOp != dfg::kNoNode)
    out += util::format("worst slack %.1f ns at '%s' (step %d)\n", worstSlackNs,
                        g.node(worstOp).name.c_str(), worstStep);
  for (const EndpointTiming& e : endpoints)
    out += util::format("  step %-3d %-12s arrival %7.1f ns  required %7.1f "
                        "ns  slack %7.1f ns  chain %d\n",
                        e.step, g.node(e.op).name.c_str(), e.arrivalNs,
                        e.requiredNs, e.slackNs, e.chainDepth);
  if (worstOp != dfg::kNoNode) {
    out += "critical path:\n";
    for (const EndpointTiming& e : endpoints)
      if (e.op == worstOp)
        for (const std::string& line : e.provenance)
          out += "  via: " + line + "\n";
  }
  return out;
}

}  // namespace mframe::analysis::timing
