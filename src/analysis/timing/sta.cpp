#include "analysis/timing/sta.h"

#include <algorithm>

#include "analysis/rules.h"
#include "trace/trace.h"
#include "util/strings.h"

namespace mframe::analysis::timing {

namespace {

using alloc::Source;
using dfg::NodeId;

/// TIM004 fires when a clean path's arrival exceeds this fraction of its
/// budget.
constexpr double kNearCriticalFraction = 0.9;

/// Everything the walker accumulates per operation: numbers only. The path
/// lines are rebuilt from them for the endpoints STA reports.
struct OpTiming {
  double settleNs = 0;    ///< result-valid time within the op's END step
  double totalNs = 0;     ///< full combinational time from its start step
  int chainDepth = 1;
  int worstOperand = -1;  ///< operand that sets the arrival; -1 when none
};

/// One operand's data-valid time at its ALU port, past the port's mux tree.
struct OperandArrival {
  double ns = 0;
  NodeId chainedFrom = dfg::kNoNode;  ///< producer chained in this step
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

  const celllib::Module& moduleOf(int alu) const {
    return d.lib->module(d.alus[static_cast<std::size_t>(alu)].module);
  }

  /// The arrival of operand `i` of `id` on ALU `alu`. With a `path`, also
  /// appends the hops the operand adds, outermost first: its source and
  /// bus, then the mux. A chained operand adds only its chaining bus and
  /// the mux, since its producer's own hops come before them.
  OperandArrival operandArrival(NodeId id, int alu, std::size_t i,
                                std::vector<std::string>* path) const {
    const NodeId p = g.node(id).inputs[i];
    const DelayModel& m = kDelayModel;
    const char* side = "left";
    const alloc::PortWiring* port = portFor(alu, id, p, i, &side);
    const Source* src = port ? port->sourceFor(id, p) : nullptr;

    OperandArrival a;
    if (!src) {
      // Unwired reads are RTL009's problem; assume a registered source so
      // the walk stays total.
      a.ns = m.regClkToQNs + m.busNs;
      if (path)
        path->push_back(util::format(
            "unwired read of '%s' (assumed registered, +%.1f ns)",
            g.node(p).name.c_str(), a.ns));
    } else {
      switch (src->kind) {
        case Source::Kind::Constant:
          if (path)
            path->push_back(
                util::format("constant %ld hardwired to ALU%d %s port",
                             g.node(p).constValue, alu, side));
          break;
        case Source::Kind::PrimaryInput:
          a.ns = m.busNs;
          if (path) {
            path->push_back(
                util::format("primary input '%s'", g.node(p).name.c_str()));
            path->push_back(util::format(
                "bus: input line to ALU%d %s port (+%.1f ns)", alu, side,
                m.busNs));
          }
          break;
        case Source::Kind::Register:
          a.ns = m.regClkToQNs + m.busNs;
          if (path) {
            path->push_back(util::format(
                "register r%d ('%s') clk-to-q +%.1f ns at step %d start",
                src->index, g.node(p).name.c_str(), m.regClkToQNs,
                d.schedule.stepOf(id)));
            path->push_back(util::format(
                "bus: register r%d line to ALU%d %s port (+%.1f ns)",
                src->index, alu, side, m.busNs));
          }
          break;
        case Source::Kind::AluOut:
          // Chained: the producer's combinational result this same step.
          a.ns = timing[p].settleNs + m.busNs;
          a.chainedFrom = p;
          if (path)
            path->push_back(util::format(
                "bus: ALU%d output chained to ALU%d %s port (+%.1f ns)",
                src->index, alu, side, m.busNs));
          break;
      }
    }
    const int levels = port ? muxLevels(port->sources.size()) : 0;
    const double muxNs = levels * m.muxLevelNs;
    a.ns += muxNs;
    if (path)
      path->push_back(util::format(
          "mux: ALU%d %s port (%zu input(s), %d level(s), +%.1f ns)", alu,
          side, port ? port->sources.size() : std::size_t{1}, levels, muxNs));
    return a;
  }

  void walkOp(NodeId id) {
    const dfg::Node& node = g.node(id);
    const int alu = d.aluIndexOf(id);
    OpTiming& t = timing[id];

    double worstArrival = 0.0;
    for (std::size_t i = 0; i < node.inputs.size(); ++i) {
      const OperandArrival a = operandArrival(id, alu, i, nullptr);
      if (t.worstOperand < 0 || a.ns > worstArrival) {
        t.worstOperand = static_cast<int>(i);
        worstArrival = a.ns;
        t.chainDepth = 1 + (a.chainedFrom == dfg::kNoNode
                                ? 0
                                : timing[a.chainedFrom].chainDepth);
      }
    }
    t.totalNs = worstArrival + moduleOf(alu).delayNs;
    // A multicycle op spends whole earlier steps; only the residue lands in
    // its final step, where chained consumers may pick the value up.
    const double earlier = (node.cycles - 1) * opts.clockNs;
    t.settleNs = std::max(0.0, t.totalNs - earlier);
  }

  /// The producer chained into `id` through the operand that sets its
  /// arrival, or kNoNode when that operand comes from a register, an input
  /// or a constant.
  NodeId chainedProducer(NodeId id) const {
    const int k = timing[id].worstOperand;
    if (k < 0) return dfg::kNoNode;
    return operandArrival(id, d.aluIndexOf(id), static_cast<std::size_t>(k),
                          nullptr)
        .chainedFrom;
  }

  /// The critical path into endpoint `e`, outermost first: for each ALU of
  /// the chain, the hops of the operand that sets its arrival and the ALU
  /// itself, then the bus and the latching register. The chain is walked
  /// back one producer at a time, since it can be as long as the design.
  std::vector<std::string> endpointPath(const EndpointTiming& e) const {
    std::vector<NodeId> chain{e.op};
    for (NodeId p = chainedProducer(e.op); p != dfg::kNoNode;
         p = chainedProducer(p))
      chain.push_back(p);

    const DelayModel& m = kDelayModel;
    std::vector<std::string> path;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      const dfg::Node& node = g.node(*it);
      const OpTiming& t = timing[*it];
      const int alu = d.aluIndexOf(*it);
      if (t.worstOperand >= 0)
        operandArrival(*it, alu, static_cast<std::size_t>(t.worstOperand),
                       &path);
      const celllib::Module& module = moduleOf(alu);
      path.push_back(util::format(
          "ALU%d %s computes '%s' (%s, +%.1f ns) — valid %.1f ns into the "
          "path",
          alu, module.signature().c_str(), node.name.c_str(),
          std::string(dfg::kindName(node.kind)).c_str(), module.delayNs,
          t.totalNs));
    }
    const int destReg = d.registerOf(e.op);
    if (destReg >= 0)
      path.push_back(util::format(
          "bus: ALU%d output to register r%d (+%.1f ns)", e.alu, destReg,
          m.busNs));
    else
      path.push_back(util::format(
          "bus: ALU%d output to output port (+%.1f ns)", e.alu, m.busNs));
    path.push_back(util::format(
        "register %s latches '%s' at end of step %d (setup +%.1f ns) — "
        "arrival %.1f ns vs %.1f ns budget",
        destReg >= 0 ? util::format("r%d", destReg).c_str() : "out",
        g.node(e.op).name.c_str(), e.step, m.setupNs, e.arrivalNs,
        e.requiredNs));
    trace::bump(trace::Counter::StaPathLines, path.size());
    return path;
  }
};

}  // namespace

int muxLevels(std::size_t inputs) {
  int levels = 0;
  for (std::size_t reach = 1; reach < inputs; reach <<= 1) ++levels;
  return levels;
}

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
    if (dfg::isSchedulable(g.node(id).kind) && d.aluIndexOf(id) >= 0)
      walker.walkOp(id);

  const DelayModel& m = kDelayModel;
  std::size_t worst = 0;
  for (NodeId id = 0; id < g.size(); ++id) {
    const dfg::Node& node = g.node(id);
    const int alu = d.aluIndexOf(id);
    if (!dfg::isSchedulable(node.kind) || alu < 0) continue;
    const bool latched = d.registerOf(id) >= 0 || isOutput[id];
    if (!latched) continue;  // chained-only: audited through its consumers

    const OpTiming& t = walker.timing[id];
    EndpointTiming e;
    e.op = id;
    e.step = d.schedule.endStepOf(id);
    e.alu = alu;
    e.latched = true;
    e.chainDepth = t.chainDepth;
    e.requiredNs = node.cycles * opts.clockNs;
    e.arrivalNs = t.totalNs + m.busNs + m.setupNs;
    e.slackNs = e.requiredNs - e.arrivalNs;

    r.maxChainDepth = std::max(r.maxChainDepth, e.chainDepth);
    if (r.worstOp == dfg::kNoNode || e.slackNs < r.worstSlackNs) {
      r.worstSlackNs = e.slackNs;
      r.worstOp = id;
      worst = r.endpoints.size();
    }
    trace::bump(trace::Counter::StaEndpoints);
    r.endpoints.push_back(std::move(e));
  }
  if (r.worstOp != dfg::kNoNode)
    r.criticalPath = walker.endpointPath(r.endpoints[worst]);

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
    diag.provenance = walker.endpointPath(e);
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
    } else if (e.arrivalNs > kNearCriticalFraction * e.requiredNs) {
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
    for (const std::string& line : criticalPath) out += "  via: " + line + "\n";
  }
  return out;
}

}  // namespace mframe::analysis::timing
