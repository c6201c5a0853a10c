#include "analysis/audit/audit.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/dataflow/engine.h"
#include "analysis/rules.h"
#include "explore/thread_pool.h"
#include "rtl/step_index.h"
#include "trace/trace.h"
#include "util/strings.h"

namespace mframe::analysis::audit {

namespace {

using dfg::NodeId;
using rtl::PortRead;
using rtl::StepIndex;

// ------------------------------------------------------------- bit vectors

/// Fixed-width bitset over the design's registers.
struct Bits {
  std::vector<std::uint64_t> w;

  bool operator==(const Bits&) const = default;

  static Bits zeros(std::size_t n) {
    Bits b;
    b.w.assign((n + 63) / 64, 0);
    return b;
  }
  static Bits ones(std::size_t n) {
    Bits b = zeros(n);
    for (std::size_t i = 0; i < n; ++i) b.set(static_cast<int>(i));
    return b;
  }
  bool test(int i) const {
    return (w[static_cast<std::size_t>(i) / 64] >>
            (static_cast<std::size_t>(i) % 64)) &
           1u;
  }
  void set(int i) {
    w[static_cast<std::size_t>(i) / 64] |= std::uint64_t{1}
                                           << (static_cast<std::size_t>(i) % 64);
  }
  void clear(int i) {
    w[static_cast<std::size_t>(i) / 64] &=
        ~(std::uint64_t{1} << (static_cast<std::size_t>(i) % 64));
  }
  void intersect(const Bits& o) {
    for (std::size_t k = 0; k < w.size(); ++k) w[k] &= o.w[k];
  }
};

/// Per-state register facts. `defined`: some value was stored on *every*
/// path from reset. `clean`: on every path, and the stored value's operand
/// chain never read an undefined register (clean implies defined).
struct DefState {
  Bits defined, clean;

  bool operator==(const DefState&) const = default;
};

// --------------------------------------------------- definedness transfer
// (the per-state fold itself — StepIndex — is shared with the range
// analysis, the validator and the Verilog writer, and lives in
// rtl/step_index.h)

/// Would executing `op` with register facts `in` produce a clean value?
/// Chained operands (ALU-output sources) recurse into their producer;
/// node ids are topological, so the recursion is bounded by the DAG depth.
bool opClean(const StepIndex& idx, NodeId op, const DefState& in,
             int depth = 0) {
  if (depth > 64) return false;  // defensive: treat runaway chains as X
  const dfg::Node& n = idx.d->graph->node(op);
  for (NodeId sig : n.inputs) {
    const alloc::Source* src = idx.wiredSource(op, sig);
    if (src == nullptr) continue;  // unrouted read: not this rule's defect
    switch (src->kind) {
      case alloc::Source::Kind::Register:
        if (!in.clean.test(src->index)) return false;
        break;
      case alloc::Source::Kind::AluOut:
        if (!opClean(idx, sig, in, depth + 1)) return false;
        break;
      case alloc::Source::Kind::PrimaryInput:
      case alloc::Source::Kind::Constant:
        break;
    }
  }
  return true;
}

/// State-0 facts: primary-input preloads are defined and clean.
DefState entryState(const StepIndex& idx) {
  DefState s{Bits::zeros(idx.numRegs), Bits::zeros(idx.numRegs)};
  for (const rtl::RegLoad* rl : idx.loads[0]) {
    s.defined.set(rl->reg);
    s.clean.set(rl->reg);
  }
  return s;
}

/// Apply state `step`'s latches to the incoming facts. Several writers of
/// one register in the same step leave it defined but clean only when
/// every writer is clean (the hardware result is any of them).
DefState applyWrites(const StepIndex& idx, int step, DefState in) {
  const auto& ls = idx.loads[static_cast<std::size_t>(step)];
  for (std::size_t i = 0; i < ls.size();) {
    std::size_t j = i;
    bool allClean = true;
    while (j < ls.size() && ls[j]->reg == ls[i]->reg) {
      const bool c = ls[j]->fromAlu < 0 || opClean(idx, ls[j]->signal, in);
      allClean = allClean && c;
      ++j;
    }
    in.defined.set(ls[i]->reg);
    if (allClean)
      in.clean.set(ls[i]->reg);
    else
      in.clean.clear(ls[i]->reg);
    i = j;
  }
  return in;
}

// ------------------------------------------------------------ the fixpoint

/// Must-defined forward dataflow over the reachable step graph: meet is
/// intersection over predecessor states, transfer applies the state's
/// latches. Unreachable states (empty dependence list past state 0) stay at
/// top so they never weaken a reachable meet.
struct MustDefinedDomain {
  using Value = DefState;

  const StepIndex* idx;

  Value initial(int node) const {
    return node == 0 ? entryState(*idx)
                     : DefState{Bits::ones(idx->numRegs),
                                Bits::ones(idx->numRegs)};
  }
  Value transfer(int node, const std::vector<Value>& deps) const {
    if (node == 0) return entryState(*idx);
    if (deps.empty())
      return DefState{Bits::ones(idx->numRegs), Bits::ones(idx->numRegs)};
    DefState in = deps[0];
    for (std::size_t k = 1; k < deps.size(); ++k) {
      in.defined.intersect(deps[k].defined);
      in.clean.intersect(deps[k].clean);
    }
    return applyWrites(*idx, node, std::move(in));
  }
  static Value widen(const Value& previous, const Value& next) {
    // Intersection over a finite bitset only descends; meet of old and new
    // is a safe (and here: exact) forced fixpoint.
    DefState v = previous;
    v.defined.intersect(next.defined);
    v.clean.intersect(next.clean);
    return v;
  }
};

/// Incoming facts of a reachable state: the meet of its predecessors'
/// solved out-states (state 0 has no predecessors and no reads).
DefState inStateOf(int s, const ReachResult& reach, const StepIndex& idx,
                   const std::vector<DefState>& out) {
  const auto& ps = reach.preds[static_cast<std::size_t>(s)];
  if (ps.empty())
    return DefState{Bits::zeros(idx.numRegs), Bits::zeros(idx.numRegs)};
  DefState in = out[static_cast<std::size_t>(ps[0])];
  for (std::size_t k = 1; k < ps.size(); ++k) {
    in.defined.intersect(out[static_cast<std::size_t>(ps[k])].defined);
    in.clean.intersect(out[static_cast<std::size_t>(ps[k])].clean);
  }
  return in;
}

// ------------------------------------------------------------- provenance

std::string formatPath(const std::vector<int>& path) {
  std::string s = "reachable path:";
  for (std::size_t i = 0; i < path.size(); ++i)
    s += util::format("%s%d", i == 0 ? " " : " -> ", path[i]);
  return s;
}

/// A reset path to `target` along which no visited state latches register
/// `reg` — the concrete witness behind a must-defined miss. Falls back to
/// the plain BFS path when blocking finds nothing (cannot happen for a
/// distributive must-analysis, but the audit must not crash on a liar).
std::vector<int> witnessPathAvoiding(const ReachResult& reach,
                                     const StepIndex& idx, int reg,
                                     int target) {
  std::vector<char> writes(static_cast<std::size_t>(reach.numStates), 0);
  for (int s = 0; s < reach.numStates; ++s)
    for (const rtl::RegLoad* rl : idx.loads[static_cast<std::size_t>(s)])
      if (rl->reg == reg) writes[static_cast<std::size_t>(s)] = 1;

  std::vector<int> parent(static_cast<std::size_t>(reach.numStates), -2);
  std::deque<int> frontier;
  if (!writes[0]) {
    parent[0] = -1;
    frontier.push_back(0);
  }
  while (!frontier.empty()) {
    const int s = frontier.front();
    frontier.pop_front();
    for (int t : reach.succs[static_cast<std::size_t>(s)]) {
      if (parent[static_cast<std::size_t>(t)] != -2) continue;
      if (t != target && writes[static_cast<std::size_t>(t)]) continue;
      parent[static_cast<std::size_t>(t)] = s;
      if (t == target) {
        std::vector<int> path;
        for (int v = t; v != -1; v = parent[static_cast<std::size_t>(v)])
          path.push_back(v);
        std::reverse(path.begin(), path.end());
        return path;
      }
      frontier.push_back(t);
    }
  }
  return reach.pathFromReset(target);
}

// ------------------------------------------------------------ per-step scan

struct StepFindings {
  std::vector<Diagnostic> diags;
  std::uint64_t rbwChecks = 0;
};

/// AUD002 / AUD003 / AUD005 for one reachable state. Pure in `step`, so the
/// parallel scan can fill slots in any order.
StepFindings scanStep(int step, const StepIndex& idx, const ReachResult& reach,
                      const std::vector<DefState>& out) {
  StepFindings f;
  const dfg::Dfg& g = *idx.d->graph;
  const DefState in = inStateOf(step, reach, idx, out);
  const auto& issues = idx.issues[static_cast<std::size_t>(step)];

  // AUD003: several non-exclusive issues drive one ALU's output line.
  std::map<int, std::vector<const rtl::MicroOp*>> byAlu;
  for (const rtl::MicroOp* m : issues) byAlu[m->alu].push_back(m);
  for (const auto& [alu, ms] : byAlu) {
    bool clash = false;
    for (std::size_t i = 0; i < ms.size() && !clash; ++i)
      for (std::size_t j = i + 1; j < ms.size() && !clash; ++j)
        clash = !g.mutuallyExclusive(ms[i]->op, ms[j]->op);
    if (!clash) continue;
    std::vector<std::string> names;
    for (const rtl::MicroOp* m : ms) names.push_back(g.node(m->op).name);
    Diagnostic d = diag(
        kAudBusContention, EntityKind::Alu,
        at(names[0], step, alu),
        util::format("ALU%d output line driven by %zu concurrent issues in "
                     "step %d (%s)",
                     alu, ms.size(), step,
                     util::join(names, ", ").c_str()),
        "reschedule or rebind so each ALU issues at most once per step");
    d.provenance.push_back(formatPath(reach.pathFromReset(step)));
    for (const rtl::MicroOp* m : ms)
      d.provenance.push_back(util::format(
          "'%s' (%s) issued on ALU%d in step %d", g.node(m->op).name.c_str(),
          std::string(dfg::kindName(g.node(m->op).kind)).c_str(), m->alu,
          m->step));
    f.diags.push_back(std::move(d));
  }

  // AUD002: a register operand read before any write reaches it.
  for (const rtl::MicroOp* m : issues) {
    for (const PortRead& r : readsOf(idx, *m)) {
      if (r.src->kind != alloc::Source::Kind::Register) continue;
      ++f.rbwChecks;
      if (in.defined.test(r.src->index)) continue;
      Diagnostic d = diag(
          kAudReadBeforeWrite, EntityKind::Register,
          at(g.node(m->op).name, step, r.src->index, r.port),
          util::format("'%s' reads R%d in step %d before any write reaches "
                       "it on some reset path",
                       g.node(m->op).name.c_str(), r.src->index, step),
          "schedule a defining write on every reset path to this read");
      d.provenance.push_back(
          formatPath(witnessPathAvoiding(reach, idx, r.src->index, step)) +
          util::format(" (no state on it latches R%d)", r.src->index));
      d.provenance.push_back(util::format(
          "'%s' issued on ALU%d, %s port%s", g.node(m->op).name.c_str(),
          m->alu, r.port,
          r.select >= 0 ? util::format(" select %d", r.select).c_str() : ""));
      d.provenance.push_back(util::format(
          "port source: R%d (operand '%s')", r.src->index,
          g.node(r.signal).name.c_str()));
      f.diags.push_back(std::move(d));
    }
  }

  // AUD005: one register latched from several non-exclusive values at the
  // end of the same step.
  const auto& loads = idx.loads[static_cast<std::size_t>(step)];
  for (std::size_t i = 0; i < loads.size();) {
    std::size_t j = i;
    while (j < loads.size() && loads[j]->reg == loads[i]->reg) ++j;
    bool clash = false;
    for (std::size_t a = i; a < j && !clash; ++a)
      for (std::size_t b = a + 1; b < j && !clash; ++b)
        clash = loads[a]->signal != loads[b]->signal &&
                !g.mutuallyExclusive(loads[a]->signal, loads[b]->signal);
    if (clash) {
      std::vector<std::string> names;
      for (std::size_t a = i; a < j; ++a)
        names.push_back(g.node(loads[a]->signal).name);
      Diagnostic d = diag(
          kAudWriteClobber, EntityKind::Register,
          at(names[0], step, loads[i]->reg),
          util::format("R%d latched from %zu concurrent values at the end "
                       "of step %d (%s)",
                       loads[i]->reg, j - i, step,
                       util::join(names, ", ").c_str()),
          "give each concurrent value its own register");
      d.provenance.push_back(formatPath(reach.pathFromReset(step)));
      for (std::size_t a = i; a < j; ++a)
        d.provenance.push_back(util::format(
            "'%s' latched into R%d from %s", names[a - i].c_str(),
            loads[a]->reg,
            loads[a]->fromAlu < 0
                ? "a primary input"
                : util::format("ALU%d", loads[a]->fromAlu).c_str()));
      f.diags.push_back(std::move(d));
    }
    i = j;
  }
  return f;
}

// ----------------------------------------------------------- global checks

/// AUD001: dead FSM states / microcode rows. States in `provenDead` were
/// pruned by the range analysis' value proofs and stay quiet.
void checkUnreachable(const StepIndex& idx, const ReachResult& reach,
                      const std::vector<char>& provenDead,
                      LintReport& report) {
  const dfg::Dfg& g = *idx.d->graph;
  for (int s = 1; s < reach.numStates; ++s) {
    if (reach.reachable[static_cast<std::size_t>(s)]) continue;
    if (static_cast<std::size_t>(s) < provenDead.size() &&
        provenDead[static_cast<std::size_t>(s)])
      continue;
    const auto& issues = idx.issues[static_cast<std::size_t>(s)];
    const auto& loads = idx.loads[static_cast<std::size_t>(s)];
    Diagnostic d = diag(
        kAudUnreachable, EntityKind::Step, at("", s),
        util::format("state %d is unreachable from reset; microcode row %d "
                     "is dead (%zu issue(s), %zu latch(es))",
                     s, s, issues.size(), loads.size()),
        "rewire the controller transfers or drop the row");
    if (issues.empty() && loads.empty())
      d.severity = Severity::Warning;  // dead but empty: wasted word only
    for (const rtl::MicroOp* m : issues)
      d.provenance.push_back(util::format(
          "row issues '%s' on ALU%d", g.node(m->op).name.c_str(), m->alu));
    for (const rtl::RegLoad* rl : loads)
      d.provenance.push_back(util::format(
          "row latches '%s' into R%d", g.node(rl->signal).name.c_str(),
          rl->reg));
    report.add(std::move(d));
  }
}

/// AUD004: mux data inputs never selected on any reachable path.
void checkDeadMuxInputs(const StepIndex& idx, const ReachResult& reach,
                        LintReport& report) {
  const dfg::Dfg& g = *idx.d->graph;
  const std::size_t numAlus = idx.d->alus.size();
  // used[alu][0 = left, 1 = right] = selected source indices
  std::vector<std::array<std::vector<char>, 2>> used(numAlus);
  for (std::size_t a = 0; a < numAlus; ++a) {
    used[a][0].assign(idx.d->leftPort[a].sources.size(), 0);
    used[a][1].assign(idx.d->rightPort[a].sources.size(), 0);
  }
  for (int s = 1; s < reach.numStates; ++s) {
    if (!reach.reachable[static_cast<std::size_t>(s)]) continue;
    for (const rtl::MicroOp* m : idx.issues[static_cast<std::size_t>(s)])
      for (const PortRead& r : readsOf(idx, *m)) {
        const auto a = static_cast<std::size_t>(m->alu);
        const std::size_t side = r.port[0] == 'l' ? 0 : 1;
        const std::size_t sel =
            r.select >= 0 ? static_cast<std::size_t>(r.select) : 0;
        if (sel < used[a][side].size()) used[a][side][sel] = 1;
      }
  }
  for (std::size_t a = 0; a < numAlus; ++a)
    for (std::size_t side = 0; side < 2; ++side) {
      const alloc::PortWiring& w =
          side == 0 ? idx.d->leftPort[a] : idx.d->rightPort[a];
      if (w.sources.size() < 2) continue;  // no mux on this port
      for (std::size_t sel = 0; sel < w.sources.size(); ++sel) {
        if (used[a][side][sel]) continue;
        const char* port = side == 0 ? "left" : "right";
        report.add(diag(
            kAudDeadMuxInput, EntityKind::Port,
            at("", -1, static_cast<int>(a),
               util::format("%s select %zu", port, sel)),
            util::format("mux input %zu of ALU%zu's %s port (%s) is never "
                         "selected on any reachable path",
                         sel, a, port, w.sources[sel].toString(g).c_str()),
            "drop the wire or revive the control state that selects it"));
      }
    }
}

/// AUD006: an undefined or X-tainted register feeds a primary output at a
/// reachable halt state.
void checkOutputs(const StepIndex& idx, const ReachResult& reach,
                  const std::vector<DefState>& out, LintReport& report) {
  const dfg::Dfg& g = *idx.d->graph;
  for (int s = 0; s < reach.numStates; ++s) {
    if (!reach.reachable[static_cast<std::size_t>(s)] || !reach.isTerminal(s))
      continue;
    const DefState& facts = out[static_cast<std::size_t>(s)];
    for (const auto& [node, name] : g.outputs()) {
      const auto it = idx.d->regOfSignal.find(node);
      if (it == idx.d->regOfSignal.end()) continue;  // unregistered output
      const int reg = it->second;
      const bool undef = !facts.defined.test(reg);
      if (!undef && facts.clean.test(reg)) continue;
      Diagnostic d = diag(
          kAudXPropagation, EntityKind::Register,
          at(g.node(node).name, s, reg, name),
          undef
              ? util::format("primary output '%s' (R%d) is never written on "
                             "some reset path reaching halt state %d",
                             name.c_str(), reg, s)
              : util::format("primary output '%s' (R%d) can latch an "
                             "undefined (X) value at halt state %d",
                             name.c_str(), reg, s),
          undef ? "latch the output's value on every path to halt"
                : "fix the upstream undefined read the X propagates from");
      d.provenance.push_back(
          formatPath(undef ? witnessPathAvoiding(reach, idx, reg, s)
                           : reach.pathFromReset(s)));
      d.provenance.push_back(util::format(
          "output '%s' is served from R%d (signal '%s')", name.c_str(), reg,
          g.node(node).name.c_str()));
      if (!undef)
        d.provenance.push_back(
            "the taint's root cause is reported as AUD002 above");
      report.add(std::move(d));
    }
  }
}

std::string jsonEscape(std::string_view s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

AuditResult auditDesign(const rtl::Datapath& d, const rtl::ControllerFsm& fsm,
                        const rtl::MicrocodeRom& rom,
                        const AuditOptions& opt) {
  const trace::Span span("audit");
  (void)rom;  // the ROM is the FSM re-encoded; the FSM is the richer view

  AuditResult r;
  const StepIndex idx(d, fsm);
  r.reach = reachSteps(fsm);

  // The must-defined/clean fixpoint over the step graph (dependences =
  // reachable predecessors), solved by the shared worklist engine.
  const MustDefinedDomain domain{&idx};
  const auto solution =
      dataflow::solveGraph(r.reach.numStates, r.reach.preds, domain);

  // Reachable-step scan, parallel over states; slots merge in step order so
  // the report and every audit.* counter are identical for any jobs value.
  std::vector<StepFindings> slots(
      static_cast<std::size_t>(r.reach.numStates));
  explore::parallelFor(
      r.reach.numStates - 1, opt.jobs, [&](int i) {
        const int step = i + 1;
        if (r.reach.reachable[static_cast<std::size_t>(step)])
          slots[static_cast<std::size_t>(step)] =
              scanStep(step, idx, r.reach, solution.values);
      });

  checkUnreachable(idx, r.reach, opt.provenDead, r.report);
  for (int s = 1; s < r.reach.numStates; ++s) {
    auto& slot = slots[static_cast<std::size_t>(s)];
    r.rbwChecks += slot.rbwChecks;
    for (Diagnostic& d2 : slot.diags) r.report.add(std::move(d2));
  }
  checkDeadMuxInputs(idx, r.reach, r.report);
  checkOutputs(idx, r.reach, solution.values, r.report);

  trace::bump(trace::Counter::AuditReachableStates,
              static_cast<std::uint64_t>(r.reach.reachableCount()));
  trace::bump(trace::Counter::AuditRbwChecks, r.rbwChecks);
  trace::bump(trace::Counter::AuditFindings,
              static_cast<std::uint64_t>(r.report.size()));
  return r;
}

std::string renderAuditJson(const AuditResult& r, const dfg::Dfg& g) {
  std::string out = "{\n";
  out += "  \"schema\": 1,\n";
  out += "  \"design\": \"" + jsonEscape(g.name()) + "\",\n";
  out += util::format("  \"states\": %d,\n", r.reach.numStates);
  out += util::format("  \"reachableStates\": %d,\n",
                      r.reach.reachableCount());
  out += util::format("  \"rbwChecks\": %llu,\n",
                      static_cast<unsigned long long>(r.rbwChecks));
  out += "  \"lint\": " + r.report.renderJson(g.name());
  out += "\n}\n";
  return out;
}

std::string renderAuditSummary(const AuditResult& r) {
  std::string out = util::format(
      "audit: %d/%d states reachable, %llu read checks",
      r.reach.reachableCount(), r.reach.numStates,
      static_cast<unsigned long long>(r.rbwChecks));
  if (r.clean()) return out + ", clean";
  return out + util::format(", %zu finding(s)", r.report.size());
}

}  // namespace mframe::analysis::audit
