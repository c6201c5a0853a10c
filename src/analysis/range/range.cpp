#include "analysis/range/range.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/dataflow/engine.h"
#include "analysis/dataflow/passes.h"
#include "analysis/rules.h"
#include "explore/thread_pool.h"
#include "rtl/step_index.h"
#include "trace/trace.h"
#include "util/strings.h"

namespace mframe::analysis::range {

namespace {

using audit::formatPath;
using audit::ReachResult;
using audit::usedSelects;
using dataflow::Interval;
using dataflow::kWordWidth;
using dfg::NodeId;
using rtl::PortRead;
using rtl::StepIndex;
using sim::Word;

std::string formatInterval(const Interval& v) {
  return util::format("[%llu, %llu]", static_cast<unsigned long long>(v.lo),
                      static_cast<unsigned long long>(v.hi));
}

// ---------------------------------------------------------- abstract values

/// The architectural range of a leaf signal: a constant is itself, a primary
/// input ranges over its declared width (the same seeding analyzeRanges
/// uses), anything else is unknown.
Interval nodeRange(const dfg::Node& n) {
  if (n.kind == dfg::OpKind::Const)
    return Interval::constant(static_cast<Word>(n.constValue), kWordWidth);
  if (n.kind == dfg::OpKind::Input && n.width > 0)
    return Interval::full(std::min(n.width, kWordWidth));
  return Interval::full(kWordWidth);
}

RegFact undefFact() {
  return RegFact{false, Interval::full(kWordWidth)};
}

/// The interval an issued operation produces in a state whose incoming
/// register facts are `in`. Chained operands (ALU-output sources) recurse
/// into their producer; node ids are topological, so the recursion is
/// bounded by the DAG depth (the cap is defensive, mirroring opClean).
Interval opInterval(const StepIndex& idx, NodeId op, const RangeState& in,
                    int depth = 0) {
  if (depth > 64) return Interval::full(kWordWidth);
  const dfg::Node& n = idx.d->graph->node(op);
  switch (n.kind) {
    case dfg::OpKind::Input:
    case dfg::OpKind::Const:
      return nodeRange(n);
    case dfg::OpKind::LoopSuper:
      return Interval::full(kWordWidth);
    default:
      break;
  }
  std::array<Interval, 2> operands{Interval::full(kWordWidth),
                                   Interval::full(kWordWidth)};
  for (std::size_t i = 0; i < n.inputs.size() && i < 2; ++i) {
    const NodeId sig = n.inputs[i];
    const alloc::Source* src = idx.wiredSource(op, sig);
    if (src == nullptr) continue;  // unrouted read: full range stays sound
    switch (src->kind) {
      case alloc::Source::Kind::Register:
        if (src->index >= 0 &&
            static_cast<std::size_t>(src->index) < in.regs.size()) {
          const RegFact& f = in.regs[static_cast<std::size_t>(src->index)];
          operands[i] = f.defined ? f.val : Interval::full(kWordWidth);
        }
        break;
      case alloc::Source::Kind::AluOut:
        operands[i] = opInterval(idx, sig, in, depth + 1);
        break;
      case alloc::Source::Kind::PrimaryInput:
      case alloc::Source::Kind::Constant:
        operands[i] = nodeRange(idx.d->graph->node(sig));
        break;
    }
  }
  return dataflow::intervalTransfer(n.kind, operands[0], operands[1],
                                    kWordWidth);
}

/// The value latched by one RegLoad given incoming facts `in`.
Interval latchInterval(const StepIndex& idx, const rtl::RegLoad& rl,
                       const RangeState& in) {
  if (rl.fromAlu < 0) return nodeRange(idx.d->graph->node(rl.signal));
  return opInterval(idx, rl.signal, in);
}

// ------------------------------------------------------------- the lattice

RangeState bottomState(std::size_t numRegs) {
  RangeState s;
  s.reached = false;
  s.regs.assign(numRegs, undefFact());
  return s;
}

/// Join (may-union) of two states. A register defined on only one incoming
/// path is undefined at the join — its concrete value may be garbage — and
/// undefined facts normalize to the full range so equality is canonical.
RangeState joinStates(const RangeState& a, const RangeState& b) {
  if (!a.reached) return b;
  if (!b.reached) return a;
  RangeState j;
  j.reached = true;
  j.regs.resize(a.regs.size());
  for (std::size_t r = 0; r < a.regs.size(); ++r) {
    if (a.regs[r].defined && b.regs[r].defined)
      j.regs[r] = RegFact{true, Interval::join(a.regs[r].val, b.regs[r].val)};
    else
      j.regs[r] = undefFact();
  }
  return j;
}

/// State-0 facts: primary-input preloads are defined with their declared
/// input ranges; everything else is garbage.
RangeState entryState(const StepIndex& idx) {
  RangeState s = bottomState(idx.numRegs);
  s.reached = true;
  for (const rtl::RegLoad* rl : idx.loads[0]) {
    const auto r = static_cast<std::size_t>(rl->reg);
    const Interval v = nodeRange(idx.d->graph->node(rl->signal));
    s.regs[r] = s.regs[r].defined
                    ? RegFact{true, Interval::join(s.regs[r].val, v)}
                    : RegFact{true, v};
  }
  return s;
}

/// Apply state `step`'s latches to the incoming facts. Several writers of
/// one register in the same step (exclusive branches folded into one row)
/// leave it holding any of their values: the join.
RangeState applyLatches(const StepIndex& idx, int step, RangeState in) {
  const auto& ls = idx.loads[static_cast<std::size_t>(step)];
  for (std::size_t i = 0; i < ls.size();) {
    std::size_t j = i;
    Interval v{0, 0};
    while (j < ls.size() && ls[j]->reg == ls[i]->reg) {
      const Interval lv = latchInterval(idx, *ls[j], in);
      v = j == i ? lv : Interval::join(v, lv);
      ++j;
    }
    in.regs[static_cast<std::size_t>(ls[i]->reg)] = RegFact{true, v};
    i = j;
  }
  return in;
}

// ------------------------------------------------------------ the fixpoint

/// Join/may interval dataflow over the (refined) reachable step graph.
/// Bottom is `reached == false`; unreachable states keep it (their
/// dependence list is empty and they are not state 0), so they never leak
/// facts into reachable joins. Widening at FSM loop heads: a bound still
/// moving after the revisit budget is forced to its extreme, which caps
/// convergence at two widenings per register per loop instead of one lap
/// per representable value.
struct RangeProductDomain {
  using Value = RangeState;

  const StepIndex* idx;

  Value initial(int node) const {
    return node == 0 ? entryState(*idx) : bottomState(idx->numRegs);
  }
  Value transfer(int node, const std::vector<Value>& deps) const {
    if (node == 0) return entryState(*idx);
    Value in = bottomState(idx->numRegs);
    for (const Value& d : deps) in = joinStates(in, d);
    if (!in.reached) return in;
    return applyLatches(*idx, node, std::move(in));
  }
  Value widen(const Value& previous, const Value& next) const {
    if (!previous.reached) return next;
    if (!next.reached) return previous;
    const Word mask = sim::maskFor(kWordWidth);
    Value w = next;
    for (std::size_t r = 0; r < w.regs.size(); ++r) {
      if (!w.regs[r].defined) continue;
      if (!previous.regs[r].defined) continue;
      const Interval& p = previous.regs[r].val;
      Interval& v = w.regs[r].val;
      v.lo = v.lo < p.lo ? 0 : p.lo;
      v.hi = v.hi > p.hi ? mask : p.hi;
    }
    return w;
  }
};

/// Incoming facts of a state: the join of its predecessors' solved
/// out-states (state 0 has none; its out-state is the entry itself).
RangeState inStateOf(int s, const ReachResult& reach, const StepIndex& idx,
                     const std::vector<RangeState>& out) {
  RangeState in = bottomState(idx.numRegs);
  for (int p : reach.preds[static_cast<std::size_t>(s)])
    in = joinStates(in, out[static_cast<std::size_t>(p)]);
  return in;
}

// ------------------------------------------------- reachability refinement

/// An edge is taken iff its condition signal is nonzero, so a condition the
/// DFG-level interval analysis decides prunes edges: range [0, 0] kills the
/// conditional edge itself; a range excluding 0 kills the unconditional
/// siblings of the same state (the branch always leaves). DFG-level ranges
/// over-approximate the signal's value at every cycle — independent of
/// which register carries it when — so every pruning is a proof.
void pruneDecidedEdges(const rtl::ControllerFsm& fsm, const dfg::Dfg& g,
                       const std::vector<Interval>& dfgRanges,
                       rtl::ControllerFsm& refined,
                       std::vector<PrunedEdge>& pruned) {
  if (fsm.edges.empty()) return;  // implicit linear chain: nothing to decide
  std::vector<char> drop(fsm.edges.size(), 0);
  for (std::size_t i = 0; i < fsm.edges.size(); ++i) {
    const rtl::StepEdge& e = fsm.edges[i];
    if (e.cond == dfg::kNoNode || e.cond >= dfgRanges.size()) continue;
    const Interval c = dfgRanges[e.cond];
    if (c.hi == 0) {
      drop[i] = 1;
      pruned.push_back(
          {e, util::format("cond '%s' is always 0: edge %d -> %d never taken",
                           g.node(e.cond).name.c_str(), e.from, e.to)});
    } else if (c.lo >= 1) {
      for (std::size_t k = 0; k < fsm.edges.size(); ++k) {
        const rtl::StepEdge& f = fsm.edges[k];
        if (drop[k] || f.from != e.from || f.cond != dfg::kNoNode) continue;
        drop[k] = 1;
        pruned.push_back(
            {f, util::format("cond '%s' of the sibling branch is never 0 "
                             "(range %s): fallthrough %d -> %d never taken",
                             g.node(e.cond).name.c_str(),
                             formatInterval(c).c_str(), f.from, f.to)});
      }
    }
  }
  refined = fsm;
  if (pruned.empty()) return;
  std::size_t w = 0;
  for (std::size_t i = 0; i < refined.edges.size(); ++i)
    if (!drop[i]) refined.edges[w++] = refined.edges[i];
  refined.edges.resize(w);
  // Never let the refined edge set collapse to empty: successorsOf would
  // fall back to the implicit linear chain and resurrect every pruned
  // transfer. A lone halt sentinel keeps the vector non-empty and the
  // machine parked at reset, which is exactly what "every edge is proven
  // untaken" means.
  if (refined.edges.empty()) refined.edges.push_back({0, 0, dfg::kNoNode});
}

// ------------------------------------------------------------ per-state scan

struct StateFindings {
  std::vector<Diagnostic> diags;
};

/// WID001 / WID002 / WID003 for one refined-reachable state. Pure in `s`,
/// so the parallel scan can fill slots in any order.
StateFindings scanState(int s, const StepIndex& idx, const ReachResult& reach,
                        const std::vector<RangeState>& out,
                        const std::vector<rtl::DeclaredWidth>& regWidths,
                        const std::vector<rtl::DeclaredWidth>& aluWidths) {
  StateFindings f;
  const dfg::Dfg& g = *idx.d->graph;
  const RangeState in = inStateOf(s, reach, idx, out);

  // WID003 / WID002: every issued operation's inferred result range against
  // its own declared width, or — when it declares none — against the width
  // its ALU's shared output line inherited from a declaring co-tenant.
  for (const rtl::MicroOp* m : idx.issues[static_cast<std::size_t>(s)]) {
    const dfg::Node& n = g.node(m->op);
    const Interval rv = opInterval(idx, m->op, in);
    if (n.width > 0 && n.width <= 64) {
      if (rv.hi > sim::maskFor(n.width)) {
        Diagnostic d = diag(
            kWidDeclaredWidthOverflow, EntityKind::Node,
            at(n.name, s, m->alu),
            util::format("'%s' can overflow its declared width=%d in state "
                         "%d: inferred range %s needs %d bit(s)",
                         n.name.c_str(), n.width, s,
                         formatInterval(rv).c_str(), rv.widthNeeded()),
            "widen the declaration or constrain the operand ranges");
        d.provenance.push_back(formatPath(reach.pathFromReset(s)));
        d.provenance.push_back(util::format(
            "'%s' issued on ALU%d in state %d", n.name.c_str(), m->alu, s));
        f.diags.push_back(std::move(d));
      }
    } else if (n.width == 0) {
      const auto a = static_cast<std::size_t>(m->alu);
      if (a < aluWidths.size() && aluWidths[a].width > 0 &&
          rv.hi > sim::maskFor(aluWidths[a].width)) {
        const dfg::Node& tenant = g.node(aluWidths[a].tenant);
        Diagnostic d = diag(
            kWidSharedLineOverflow, EntityKind::Alu,
            at(n.name, s, m->alu),
            util::format("ALU%d's shared output line truncates '%s' in state "
                         "%d: range %s needs %d bit(s) but the line is %d "
                         "bit(s) wide",
                         m->alu, n.name.c_str(), s,
                         formatInterval(rv).c_str(), rv.widthNeeded(),
                         aluWidths[a].width),
            util::format("declare width= on '%s' or rebind it away from the "
                         "narrow line",
                         n.name.c_str()));
        d.provenance.push_back(formatPath(reach.pathFromReset(s)));
        d.provenance.push_back(util::format(
            "'%s' issued on ALU%d in state %d", n.name.c_str(), m->alu, s));
        d.provenance.push_back(util::format(
            "line sized to %d bit(s) by declared tenant '%s'",
            aluWidths[a].width, tenant.name.c_str()));
        f.diags.push_back(std::move(d));
      }
    }
  }

  // WID001: the value latched at the end of this state against the declared
  // size of the destination register.
  const auto& ls = idx.loads[static_cast<std::size_t>(s)];
  for (std::size_t i = 0; i < ls.size();) {
    std::size_t j = i;
    Interval sv{0, 0};
    while (j < ls.size() && ls[j]->reg == ls[i]->reg) {
      const Interval lv = latchInterval(idx, *ls[j], in);
      sv = j == i ? lv : Interval::join(sv, lv);
      ++j;
    }
    const auto reg = static_cast<std::size_t>(ls[i]->reg);
    if (reg < regWidths.size() && regWidths[reg].width > 0 &&
        sv.hi > sim::maskFor(regWidths[reg].width)) {
      const dfg::Node& tenant = g.node(regWidths[reg].tenant);
      std::vector<std::string> names;
      for (std::size_t a = i; a < j; ++a)
        names.push_back(g.node(ls[a]->signal).name);
      Diagnostic d = diag(
          kWidTruncatingWrite, EntityKind::Register,
          at(names[0], s, ls[i]->reg),
          util::format("latching '%s' into R%d truncates in state %d: range "
                       "%s needs %d bit(s) but R%d is %d bit(s) wide",
                       util::join(names, ", ").c_str(), ls[i]->reg, s,
                       formatInterval(sv).c_str(), sv.widthNeeded(),
                       ls[i]->reg, regWidths[reg].width),
          "widen the sizing tenant's width= or split the shared register");
      d.provenance.push_back(formatPath(reach.pathFromReset(s)));
      for (std::size_t a = i; a < j; ++a)
        d.provenance.push_back(util::format(
            "'%s' latched into R%d from %s, range %s",
            names[a - i].c_str(), ls[a]->reg,
            ls[a]->fromAlu < 0
                ? "a primary input"
                : util::format("ALU%d", ls[a]->fromAlu).c_str(),
            formatInterval(latchInterval(idx, *ls[a], in))
                .c_str()));
      d.provenance.push_back(util::format(
          "R%d sized to %d bit(s) by declared tenant '%s'", ls[i]->reg,
          regWidths[reg].width, tenant.name.c_str()));
      f.diags.push_back(std::move(d));
    }
    i = j;
  }
  return f;
}

// ----------------------------------------------------------- global checks

/// WID004: mux data inputs that symbolic reachability keeps alive but the
/// value analysis proves dead — every state selecting them fell to pruning.
/// AUD004 cannot see these (it runs on the over-approximation); this rule is
/// the refinement dividend.
void checkValueDeadMuxInputs(const StepIndex& idx, const ReachResult& over,
                             const ReachResult& refined, LintReport& report) {
  const dfg::Dfg& g = *idx.d->graph;
  const auto usedOver = usedSelects(idx, over);
  const auto usedRefined = usedSelects(idx, refined);
  for (std::size_t a = 0; a < usedOver.size(); ++a)
    for (std::size_t side = 0; side < 2; ++side) {
      const alloc::PortWiring& w =
          side == 0 ? idx.d->leftPort[a] : idx.d->rightPort[a];
      if (w.sources.size() < 2) continue;  // no mux on this port
      for (std::size_t sel = 0; sel < w.sources.size(); ++sel) {
        if (!usedOver[a][side][sel] || usedRefined[a][side][sel]) continue;
        const char* port = side == 0 ? "left" : "right";
        Diagnostic d = diag(
            kWidValueDeadMuxInput, EntityKind::Port,
            at("", -1, static_cast<int>(a),
               util::format("%s select %zu", port, sel)),
            util::format("mux input %zu of ALU%zu's %s port (%s) is only "
                         "selected in states the value analysis proved "
                         "unreachable",
                         sel, a, port, w.sources[sel].toString(g).c_str()),
            "drop the wire or revisit the decided branch condition");
        for (int s = 1; s < over.numStates; ++s) {
          if (!over.reachable[static_cast<std::size_t>(s)] ||
              refined.reachable[static_cast<std::size_t>(s)])
            continue;
          for (const rtl::MicroOp* m : idx.issues[static_cast<std::size_t>(s)])
            if (static_cast<std::size_t>(m->alu) == a)
              for (const PortRead& r : readsOf(idx, *m))
                if ((r.port[0] == 'l' ? 0u : 1u) == side &&
                    (r.select >= 0 ? static_cast<std::size_t>(r.select)
                                   : 0u) == sel)
                  d.provenance.push_back(util::format(
                      "selected by '%s' in value-dead state %d",
                      g.node(m->op).name.c_str(), s));
        }
        report.add(std::move(d));
      }
    }
}

/// WID005: user `.bind` assertions against the fixpoint. An assertion holds
/// when, in every refined-reachable state where the register carries a
/// defined value, the inferred interval stays inside [min, max] (and inside
/// the asserted width, when given).
void checkAsserts(const StepIndex& idx, const ReachResult& refined,
                  const std::vector<RangeState>& out,
                  const std::vector<RegAssert>& asserts, LintReport& report) {
  for (const RegAssert& a : asserts) {
    if (a.reg < 0 || static_cast<std::size_t>(a.reg) >= idx.numRegs) {
      Diagnostic d =
          diag(kWidAssertViolated, EntityKind::Register,
               at("", -1, a.reg, ""),
               util::format("assertion names R%d but the design has %zu "
                            "register(s)",
                            a.reg, idx.numRegs),
               "fix the assert's reg= index");
      d.loc.line = a.line;
      report.add(std::move(d));
      continue;
    }
    for (int s = 0; s < refined.numStates; ++s) {
      if (!refined.reachable[static_cast<std::size_t>(s)]) continue;
      const RegFact& f =
          out[static_cast<std::size_t>(s)].regs[static_cast<std::size_t>(a.reg)];
      if (!f.defined) continue;
      const bool widthBad =
          a.width > 0 && a.width <= 64 && f.val.hi > sim::maskFor(a.width);
      if (f.val.lo >= a.min && f.val.hi <= a.max && !widthBad) continue;
      Diagnostic d = diag(
          kWidAssertViolated, EntityKind::Register, at("", s, a.reg),
          widthBad && f.val.lo >= a.min && f.val.hi <= a.max
              ? util::format("assertion violated: R%d holds %s in state %d, "
                             "which needs %d bit(s) but width=%d was asserted",
                             a.reg, formatInterval(f.val).c_str(), s,
                             f.val.widthNeeded(), a.width)
              : util::format("assertion violated: R%d holds %s in state %d, "
                             "outside the asserted [%llu, %llu]",
                             a.reg, formatInterval(f.val).c_str(), s,
                             static_cast<unsigned long long>(a.min),
                             static_cast<unsigned long long>(a.max)),
          "tighten the producing operations or correct the assertion");
      d.loc.line = a.line;
      d.provenance.push_back(formatPath(refined.pathFromReset(s)));
      d.provenance.push_back(
          util::format("assert declared at .bind line %d", a.line));
      report.add(std::move(d));
      break;  // first offending state witnesses the violation
    }
  }
}

}  // namespace

RangeResult analyzeDesignRanges(const rtl::Datapath& d,
                                const rtl::ControllerFsm& fsm,
                                const rtl::MicrocodeRom& rom,
                                const RangeOptions& opt) {
  const trace::Span span("range");
  (void)rom;  // the ROM is the FSM re-encoded; the FSM is the richer view

  RangeResult r;
  const StepIndex idx(d, fsm);
  r.reach = audit::reachSteps(fsm);

  // 1. Decide branch conditions with the DFG-level interval analysis and
  //    prune the edges the values refute; the product fixpoint and every
  //    proof below run on the refined graph.
  const std::vector<Interval> dfgRanges = dataflow::analyzeRanges(*d.graph);
  r.refinedFsm = fsm;
  pruneDecidedEdges(fsm, *d.graph, dfgRanges, r.refinedFsm, r.pruned);
  r.refined = r.pruned.empty() ? r.reach : audit::reachSteps(r.refinedFsm);

  // 2. The interval⊗defined fixpoint over the refined step graph, widened
  //    early at loop heads (intervals form a tall lattice; the default
  //    budget would crawl).
  int widenings = 0;
  const RangeProductDomain domain{&idx};
  auto solution = dataflow::solveGraph(
      r.refined.numStates, r.refined.preds, domain,
      dataflow::SolveGraphOptions{8, &widenings});
  r.values = std::move(solution.values);
  r.widenings = static_cast<std::uint64_t>(widenings);
  r.statesInterpreted =
      static_cast<std::uint64_t>(r.refined.reachableCount());

  // 3. Per-state width proofs, parallel over states; slots merge in step
  //    order so the report and every range.* counter are identical for any
  //    jobs value.
  const std::vector<rtl::DeclaredWidth> regWidths = declaredRegisterWidths(d);
  const std::vector<rtl::DeclaredWidth> aluWidths = declaredAluWidths(d);
  std::vector<StateFindings> slots(
      static_cast<std::size_t>(r.refined.numStates));
  explore::parallelFor(r.refined.numStates - 1, opt.jobs, [&](int i) {
    const int s = i + 1;
    if (r.refined.reachable[static_cast<std::size_t>(s)])
      slots[static_cast<std::size_t>(s)] =
          scanState(s, idx, r.refined, r.values, regWidths, aluWidths);
  });
  for (int s = 1; s < r.refined.numStates; ++s)
    for (Diagnostic& d2 : slots[static_cast<std::size_t>(s)].diags)
      r.report.add(std::move(d2));

  // 4. Global checks on top of the merged per-state findings.
  if (!r.pruned.empty())
    checkValueDeadMuxInputs(idx, r.reach, r.refined, r.report);
  checkAsserts(idx, r.refined, r.values, opt.asserts, r.report);
  r.assertsChecked = opt.asserts.size();

  trace::bump(trace::Counter::RangeStates, r.statesInterpreted);
  trace::bump(trace::Counter::RangeWidenings, r.widenings);
  trace::bump(trace::Counter::RangeAsserts, r.assertsChecked);
  trace::bump(trace::Counter::RangeFindings,
              static_cast<std::uint64_t>(r.report.size()));
  return r;
}

audit::AuditResult auditRefined(const RangeResult& r, const rtl::Datapath& d,
                                const rtl::MicrocodeRom& rom,
                                const audit::AuditOptions& opt) {
  audit::AuditOptions o = opt;
  if (!r.pruned.empty()) {
    o.provenDead.assign(static_cast<std::size_t>(r.reach.numStates), 0);
    for (int s = 0; s < r.reach.numStates; ++s)
      if (r.reach.reachable[static_cast<std::size_t>(s)] &&
          !r.refined.reachable[static_cast<std::size_t>(s)])
        o.provenDead[static_cast<std::size_t>(s)] = 1;
  }
  return audit::auditDesign(d, r.refinedFsm, rom, o);
}

std::string renderRangeJson(const RangeResult& r, const dfg::Dfg& g) {
  std::string out = "{\n";
  out += "  \"schema\": 1,\n";
  out += "  \"design\": \"" + util::jsonEscape(g.name()) + "\",\n";
  out += util::format("  \"states\": %d,\n", r.reach.numStates);
  out += util::format("  \"reachableStates\": %d,\n",
                      r.reach.reachableCount());
  out += util::format("  \"refinedReachableStates\": %d,\n",
                      r.refined.reachableCount());
  out += "  \"prunedEdges\": [";
  for (std::size_t i = 0; i < r.pruned.size(); ++i) {
    const PrunedEdge& p = r.pruned[i];
    out += i == 0 ? "\n" : ",\n";
    out += util::format(
        "    {\"from\": %d, \"to\": %d, \"cond\": \"%s\", \"reason\": "
        "\"%s\"}",
        p.edge.from, p.edge.to,
        p.edge.cond == dfg::kNoNode
            ? ""
            : util::jsonEscape(g.node(p.edge.cond).name).c_str(),
        util::jsonEscape(p.reason).c_str());
  }
  out += r.pruned.empty() ? "],\n" : "\n  ],\n";
  out += util::format("  \"widenings\": %llu,\n",
                      static_cast<unsigned long long>(r.widenings));
  out += util::format("  \"assertsChecked\": %llu,\n",
                      static_cast<unsigned long long>(r.assertsChecked));
  // Each register's interval joined over the refined-reachable states where
  // it carries a defined value.
  const std::size_t numRegs =
      r.values.empty() ? 0 : r.values[0].regs.size();
  out += "  \"registers\": [";
  for (std::size_t reg = 0; reg < numRegs; ++reg) {
    bool defined = false;
    Interval v{0, 0};
    for (int s = 0; s < r.refined.numStates; ++s) {
      if (!r.refined.reachable[static_cast<std::size_t>(s)]) continue;
      const RegFact& f = r.values[static_cast<std::size_t>(s)].regs[reg];
      if (!f.defined) continue;
      v = defined ? Interval::join(v, f.val) : f.val;
      defined = true;
    }
    out += reg == 0 ? "\n" : ",\n";
    if (defined)
      out += util::format(
          "    {\"reg\": %zu, \"defined\": true, \"lo\": %llu, \"hi\": "
          "%llu, \"widthNeeded\": %d}",
          reg, static_cast<unsigned long long>(v.lo),
          static_cast<unsigned long long>(v.hi), v.widthNeeded());
    else
      out += util::format("    {\"reg\": %zu, \"defined\": false}", reg);
  }
  out += numRegs == 0 ? "],\n" : "\n  ],\n";
  out += "  \"lint\": " + r.report.renderJson(g.name());
  out += "\n}\n";
  return out;
}

std::string renderRangeSummary(const RangeResult& r) {
  std::string out = util::format(
      "range: %d/%d states reachable (%d refined), %zu pruned edge(s), "
      "%llu widening(s), %llu assert(s)",
      r.reach.reachableCount(), r.reach.numStates,
      r.refined.reachableCount(), r.pruned.size(),
      static_cast<unsigned long long>(r.widenings),
      static_cast<unsigned long long>(r.assertsChecked));
  if (r.clean()) return out + ", clean";
  return out + util::format(", %zu finding(s)", r.report.size());
}

}  // namespace mframe::analysis::range
