#include "analysis/validate/validate.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "analysis/rules.h"
#include "analysis/validate/value_numbering.h"
#include "rtl/bus.h"
#include "rtl/step_index.h"
#include "trace/trace.h"
#include "util/strings.h"

namespace mframe::analysis {

namespace {

using dfg::NodeId;
using FieldKind = rtl::MicrocodeField::Kind;

/// The symbolic machine. One instance per proveDatapath call; `run` drives
/// the static cross-checks, the per-step symbolic execution and the final
/// output audit, accumulating EQV diagnostics along the way.
class Prover {
 public:
  Prover(const rtl::Datapath& d, const rtl::ControllerFsm& fsm,
         const rtl::MicrocodeRom& rom)
      : d_(d), fsm_(fsm), rom_(rom), g_(*d.graph), idx_(d, fsm) {}

  LintReport run() {
    ideal_ = vn_.numberGraph(g_);
    busAssign_ = rtl::busAssignmentPerStep(d_, fsm_);
    resolveRom();
    checkIssueTable();
    checkLoadTable();
    checkRom();
    execute();
    checkOutputs();
    return std::move(r_);
  }

 private:
  struct RegState {
    Vn value = kNoVn;
    NodeId occupant = dfg::kNoNode;
    int death = -1;
  };

  /// One ALU's ROM field handles (-1: no such field) and opcode encoding.
  struct AluFields {
    int op = -1, selL = -1, selR = -1;
    std::vector<dfg::OpKind> opcodes;
  };

  const std::string& nameOf(NodeId id) const { return g_.node(id).name; }

  /// Render two unequal values so the rendered text actually differs:
  /// deepen past the default elision until the strings tell them apart.
  std::pair<std::string, std::string> renderDistinct(Vn got, Vn want) const {
    for (int depth = 4; depth < 32; depth *= 2) {
      std::string a = vn_.toString(got, g_, depth);
      std::string b = vn_.toString(want, g_, depth);
      if (a != b) return {std::move(a), std::move(b)};
    }
    return {vn_.toString(got, g_, 32), vn_.toString(want, g_, 32)};
  }

  int deathOf(NodeId signal, int fallback) const {
    const alloc::Lifetime* lt = alloc::findLifetime(d_.lifetimes, signal);
    return lt ? lt->death : fallback;
  }

  bool aluInRange(int alu) const {
    return alu >= 0 && alu < static_cast<int>(d_.alus.size());
  }

  /// Every field handle the checks read, resolved once per unit.
  void resolveRom() {
    for (int alu = 0; alu < static_cast<int>(d_.alus.size()); ++alu) {
      AluFields f{rom_.fieldOf(FieldKind::Opcode, alu),
                  rom_.fieldOf(FieldKind::SelL, alu),
                  rom_.fieldOf(FieldKind::SelR, alu), {}};
      if (f.op >= 0) f.opcodes = rtl::aluOpcodes(d_, alu);
      aluFields_.push_back(std::move(f));
    }
    for (int reg = 0; reg < static_cast<int>(d_.regs.count()); ++reg)
      loadField_.push_back(rom_.fieldOf(FieldKind::RegLoad, reg));
  }

  // -- static cross-checks: schedule vs controller vs ROM (EQV005) -----------

  void checkIssueTable() {
    std::map<NodeId, std::vector<const rtl::MicroOp*>> byOp;
    for (const rtl::MicroOp& m : fsm_.microOps) byOp[m.op].push_back(&m);
    for (const dfg::Node& n : g_.nodes()) {
      if (!dfg::isSchedulable(n.kind) || !d_.schedule.isPlaced(n.id)) continue;
      auto it = byOp.find(n.id);
      if (it == byOp.end()) {
        r_.add(diag(kEqvStepDisagreement, EntityKind::Node,
                    at(n.name, d_.schedule.stepOf(n.id)),
                    util::format("scheduled op '%s' is never issued by the "
                                 "controller", n.name.c_str()),
                    "emit one micro-operation per scheduled operation"));
        continue;
      }
      if (it->second.size() > 1)
        r_.add(diag(kEqvStepDisagreement, EntityKind::Node,
                    at(n.name, d_.schedule.stepOf(n.id)),
                    util::format("op '%s' issued %zu times", n.name.c_str(),
                                 it->second.size())));
      const rtl::MicroOp& m = *it->second.front();
      if (m.step != d_.schedule.stepOf(n.id))
        r_.add(diag(kEqvStepDisagreement, EntityKind::Node,
                    at(n.name, m.step, m.alu),
                    util::format("op '%s' issued at step %d but scheduled at "
                                 "step %d", n.name.c_str(), m.step,
                                 d_.schedule.stepOf(n.id)),
                    "issue the op in its scheduled control step"));
      auto alu = d_.aluOf.find(n.id);
      if (alu != d_.aluOf.end() && m.alu != alu->second)
        r_.add(diag(kEqvStepDisagreement, EntityKind::Alu,
                    at(n.name, m.step, m.alu),
                    util::format("op '%s' issued on ALU%d but bound to ALU%d",
                                 n.name.c_str(), m.alu, alu->second)));
    }
  }

  void checkLoadTable() {
    std::map<NodeId, std::vector<const rtl::RegLoad*>> bySignal;
    for (const rtl::RegLoad& rl : fsm_.regLoads)
      bySignal[rl.signal].push_back(&rl);
    for (const auto& [signal, reg] : d_.regOfSignal) {
      const dfg::Node& n = g_.node(signal);
      auto it = bySignal.find(signal);
      if (it == bySignal.end()) {
        r_.add(diag(kEqvStepDisagreement, EntityKind::Register,
                    at(n.name, -1, reg),
                    util::format("registered signal '%s' is never latched",
                                 n.name.c_str()),
                    "latch the signal at the end of its birth step"));
        continue;
      }
      if (it->second.size() > 1)
        r_.add(diag(kEqvStepDisagreement, EntityKind::Register,
                    at(n.name, -1, reg),
                    util::format("signal '%s' latched %zu times",
                                 n.name.c_str(), it->second.size())));
      const rtl::RegLoad& rl = *it->second.front();
      if (rl.reg != reg)
        r_.add(diag(kEqvStepDisagreement, EntityKind::Register,
                    at(n.name, rl.step, rl.reg),
                    util::format("signal '%s' latched into R%d but allocated "
                                 "to R%d", n.name.c_str(), rl.reg, reg)));
      const int expected = n.kind == dfg::OpKind::Input
                               ? 0
                               : d_.schedule.endStepOf(signal);
      if (rl.step != expected)
        r_.add(diag(kEqvStepDisagreement, EntityKind::Register,
                    at(n.name, rl.step, rl.reg),
                    util::format("signal '%s' latched at end of step %d but "
                                 "its value is ready at end of step %d",
                                 n.name.c_str(), rl.step, expected),
                    "latch at the producer's completion step"));
    }
  }

  void checkRom() {
    romUsable_ = static_cast<int>(rom_.rows.size()) == fsm_.numSteps &&
                 std::all_of(rom_.rows.begin(), rom_.rows.end(),
                             [&](const std::vector<int>& row) {
                               return row.size() == rom_.fields.size();
                             });
    if (!romUsable_) {
      r_.add(diag(kEqvStepDisagreement, EntityKind::Design, at(""),
                  util::format("microcode ROM shape (%zu rows) disagrees with "
                               "the %d-state controller",
                               rom_.rows.size(), fsm_.numSteps)));
      return;
    }
    for (const rtl::MicroOp& m : fsm_.microOps) {
      if (m.step < 1 || m.step > fsm_.numSteps || !aluInRange(m.alu)) continue;
      const AluFields& f = aluFields_[static_cast<std::size_t>(m.alu)];
      if (f.op < 0) continue;  // single-function ALU
      const std::vector<dfg::OpKind>& codes = f.opcodes;
      const auto want =
          std::find(codes.begin(), codes.end(), g_.node(m.op).kind);
      if (want == codes.end()) continue;  // binding defect; RTL003's turf
      const std::optional<int> got = rom_.valueAt(m.step, f.op);
      if (got && *got == static_cast<int>(want - codes.begin())) continue;
      const std::string field =
          rtl::MicrocodeField{FieldKind::Opcode, m.alu}.name();
      if (!got) {
        r_.add(diag(kEqvStepDisagreement, EntityKind::Field,
                    at(nameOf(m.op), m.step, m.alu, field),
                    util::format("step %d issues '%s' but field %s holds a "
                                 "don't-care", m.step, nameOf(m.op).c_str(),
                                 field.c_str())));
        continue;
      }
      // A value past the opcode table selects no operation at all.
      const auto code = static_cast<std::size_t>(*got);
      const std::string selected =
          code < codes.size()
              ? "'" + std::string(dfg::kindName(codes[code])) + "'"
              : util::format("none of ALU%d's %zu operations", m.alu,
                             codes.size());
      r_.add(diag(kEqvStepDisagreement, EntityKind::Field,
                  at(nameOf(m.op), m.step, m.alu, field),
                  util::format("ROM opcode %d in step %d selects %s but the "
                               "schedule runs '%s'", *got, m.step,
                               selected.c_str(),
                               std::string(dfg::kindName(g_.node(m.op).kind))
                                   .c_str())));
    }
    std::set<std::pair<int, int>> loads;  // (step, reg)
    for (const rtl::RegLoad& rl : fsm_.regLoads)
      if (rl.step >= 1) loads.insert({rl.step, rl.reg});
    for (int reg = 0; reg < static_cast<int>(loadField_.size()); ++reg) {
      const int f = loadField_[static_cast<std::size_t>(reg)];
      if (f < 0) continue;
      for (int t = 1; t <= fsm_.numSteps; ++t) {
        const bool bit = rom_.valueAt(t, f).value_or(0) == 1;
        const bool expected = loads.count({t, reg}) > 0;
        if (bit == expected) continue;
        const std::string field =
            rtl::MicrocodeField{FieldKind::RegLoad, reg}.name();
        r_.add(diag(kEqvStepDisagreement, EntityKind::Field,
                    at("", t, reg, field),
                    bit ? util::format("ROM asserts %s in step %d but no "
                                       "value is latched there",
                                       field.c_str(), t)
                        : util::format("ROM misses %s in step %d where the "
                                       "controller latches",
                                       field.c_str(), t)));
      }
    }
  }

  // -- symbolic execution -----------------------------------------------------

  std::vector<std::string> provenance(const rtl::MicroOp& m, int t, bool left,
                                      int sel, const alloc::Source* src) {
    std::vector<std::string> out;
    const dfg::Node& n = g_.node(m.op);
    out.push_back(util::format(
        "op '%s' (%s) issued at step %d", n.name.c_str(),
        std::string(dfg::kindName(n.kind)).c_str(), t));
    if (aluInRange(m.alu))
      out.push_back(util::format(
          "ALU%d %s", m.alu,
          d_.lib->module(d_.alus[static_cast<std::size_t>(m.alu)].module)
              .signature().c_str()));
    out.push_back(util::format("%s port select %d", left ? "left" : "right",
                               sel));
    if (src) {
      if (t >= 1 && t < static_cast<int>(busAssign_.size())) {
        auto bus = busAssign_[static_cast<std::size_t>(t)].find(*src);
        if (bus != busAssign_[static_cast<std::size_t>(t)].end())
          out.push_back(util::format("bus %d", bus->second));
      }
      out.push_back("source " + src->toString(g_));
      if (src->kind == alloc::Source::Kind::Register && src->index >= 0 &&
          src->index < static_cast<int>(regs_.size())) {
        const NodeId occ = regs_[static_cast<std::size_t>(src->index)].occupant;
        out.push_back(util::format(
            "R%d holds %s", src->index,
            occ == dfg::kNoNode ? "nothing"
                                : ("'" + nameOf(occ) + "'").c_str()));
      }
    }
    return out;
  }

  struct ReadResult {
    Vn vn = kNoVn;
    bool defer = false;
  };

  /// Read operand `signal` of issue `m` through its left or right port.
  ReadResult readOperand(const rtl::MicroOp& m, int t, bool left,
                         NodeId signal, bool allowDefer) {
    const dfg::Node& n = g_.node(m.op);
    const auto ai = static_cast<std::size_t>(m.alu);
    const alloc::PortWiring& w = left ? d_.leftPort[ai] : d_.rightPort[ai];

    auto sel = w.selectOf.find({m.op, signal});
    if (sel == w.selectOf.end()) {
      r_.add(diag(kEqvMuxRoute, EntityKind::Port,
                  at(n.name, t, m.alu, nameOf(signal)),
                  util::format("%s port of ALU%d is not wired to deliver "
                               "'%s' to '%s'", left ? "left" : "right", m.alu,
                               nameOf(signal).c_str(), n.name.c_str())));
      return {vn_.fresh(), false};
    }
    const int expectedSel = static_cast<int>(sel->second);
    int actualSel = expectedSel;
    const std::optional<int> romSel =
        romUsable_ ? rom_.valueAt(t, left ? aluFields_[ai].selL
                                          : aluFields_[ai].selR)
                   : std::nullopt;
    // Named even where the port has no select field (a single source).
    const rtl::MicrocodeField field{left ? FieldKind::SelL : FieldKind::SelR,
                                    m.alu};
    if (romSel) {
      actualSel = *romSel;
    } else {
      const int msel = left ? m.leftSelect : m.rightSelect;
      if (msel >= 0 && w.sources.size() > 1) actualSel = msel;
    }
    if (actualSel < 0 || actualSel >= static_cast<int>(w.sources.size())) {
      Diagnostic d = diag(
          kEqvMuxRoute, EntityKind::Port, at(n.name, t, m.alu, field.name()),
          util::format("%s port select %d of ALU%d is outside its %zu-way "
                       "mux", left ? "left" : "right", actualSel, m.alu,
                       w.sources.size()));
      d.provenance = provenance(m, t, left, actualSel, nullptr);
      r_.add(std::move(d));
      return {vn_.fresh(), false};
    }
    const alloc::Source& src = w.sources[static_cast<std::size_t>(actualSel)];
    if (actualSel != expectedSel) {
      Diagnostic d = diag(
          kEqvMuxRoute, EntityKind::Port, at(n.name, t, m.alu, field.name()),
          util::format("%s port of ALU%d issues select %d (%s) but the "
                       "binding routes '%s' through select %d (%s)",
                       left ? "left" : "right", m.alu, actualSel,
                       src.toString(g_).c_str(), nameOf(signal).c_str(),
                       expectedSel,
                       w.sources[static_cast<std::size_t>(expectedSel)]
                           .toString(g_).c_str()),
          "make the issued select match the operand binding");
      d.provenance = provenance(m, t, left, actualSel, &src);
      r_.add(std::move(d));
      // Keep going with the select the hardware would actually see.
    }

    Vn got = kNoVn;
    switch (src.kind) {
      case alloc::Source::Kind::Register: {
        if (src.index < 0 || src.index >= static_cast<int>(regs_.size()))
          return {vn_.fresh(), false};
        got = regs_[static_cast<std::size_t>(src.index)].value;
        if (got == kNoVn) {
          Diagnostic d = diag(
              kEqvOperandMismatch, EntityKind::Port,
              at(n.name, t, m.alu, nameOf(signal)),
              util::format("'%s' reads R%d in step %d before any value is "
                           "written to it", n.name.c_str(), src.index, t));
          d.provenance = provenance(m, t, left, actualSel, &src);
          r_.add(std::move(d));
          return {vn_.fresh(), false};
        }
        break;
      }
      case alloc::Source::Kind::AluOut: {
        const auto& now = aluNow_[src.index];
        auto it = std::find_if(now.begin(), now.end(), [&](const auto& e) {
          return e.first == signal;
        });
        if (it != now.end()) {
          got = it->second;
        } else if (now.size() == 1) {
          got = now.front().second;
        } else if (now.empty()) {
          if (allowDefer) return {kNoVn, true};
          Diagnostic d = diag(
              kEqvOperandMismatch, EntityKind::Port,
              at(n.name, t, m.alu, nameOf(signal)),
              util::format("chained operand '%s' never appears on ALU%d's "
                           "output in step %d", nameOf(signal).c_str(),
                           src.index, t));
          d.provenance = provenance(m, t, left, actualSel, &src);
          r_.add(std::move(d));
          return {vn_.fresh(), false};
        } else {
          got = vn_.fresh();  // ambiguous: several foreign values at once
        }
        break;
      }
      case alloc::Source::Kind::PrimaryInput:
      case alloc::Source::Kind::Constant:
        got = ideal_[src.node];
        break;
    }
    if (got != ideal_[signal]) {
      const auto [gotText, wantText] = renderDistinct(got, ideal_[signal]);
      Diagnostic d = diag(
          kEqvOperandMismatch, EntityKind::Port,
          at(n.name, t, m.alu, nameOf(signal)),
          util::format("%s port of ALU%d receives %s in step %d but '%s' "
                       "expects its operand '%s' = %s",
                       left ? "left" : "right", m.alu, gotText.c_str(), t,
                       n.name.c_str(), nameOf(signal).c_str(),
                       wantText.c_str()));
      d.provenance = provenance(m, t, left, actualSel, &src);
      r_.add(std::move(d));
    }
    return {got, false};
  }

  /// Returns false when a chained read must wait for another issue of this
  /// step (caller retries later in the worklist round).
  bool executeOp(const rtl::MicroOp& m, int t, bool allowDefer) {
    const dfg::Node& n = g_.node(m.op);
    const alloc::MuxArrangement::Ports p =
        d_.arrangement[static_cast<std::size_t>(m.alu)].portSignals(n);
    Vn va = kNoVn, vb = kNoVn;
    if (p.left != dfg::kNoNode) {
      const ReadResult ra = readOperand(m, t, true, p.left, allowDefer);
      if (ra.defer) return false;
      va = ra.vn;
    }
    if (p.right != dfg::kNoNode) {
      const ReadResult rb = readOperand(m, t, false, p.right, allowDefer);
      if (rb.defer) return false;
      vb = rb.vn;
    }

    Vn result;
    if (n.kind == dfg::OpKind::LoopSuper) {
      // A folded loop body is uninterpreted: its result is only provably
      // right when both operands provably are.
      const bool matched =
          (p.left == dfg::kNoNode || va == ideal_[p.left]) &&
          (p.right == dfg::kNoNode || vb == ideal_[p.right]);
      result = matched ? ideal_[m.op] : vn_.fresh();
    } else {
      result = vn_.ofOp(n.kind, va, vb);
    }
    computed_[m.op] = result;

    const int end = t + n.cycles - 1;
    if (end == t)
      aluNow_[m.alu].emplace_back(m.op, result);
    else
      pending_[end].emplace_back(m.alu, m.op, result);
    return true;
  }

  void latch(int t) {
    for (const rtl::RegLoad* load : idx_.loads[static_cast<std::size_t>(t)]) {
      const rtl::RegLoad& rl = *load;
      if (rl.reg < 0 || rl.reg >= static_cast<int>(regs_.size())) continue;
      Vn v = vn_.fresh();
      if (rl.fromAlu >= 0) {
        const auto& now = aluNow_[rl.fromAlu];
        auto it = std::find_if(now.begin(), now.end(), [&](const auto& e) {
          return e.first == rl.signal;
        });
        if (it != now.end())
          v = it->second;
        else if (now.size() == 1)
          v = now.front().second;  // latches whatever the ALU produced
      } else if (g_.node(rl.signal).kind == dfg::OpKind::Input) {
        v = ideal_[rl.signal];
      }
      RegState& st = regs_[static_cast<std::size_t>(rl.reg)];
      if (st.occupant != dfg::kNoNode && st.occupant != rl.signal &&
          st.death > t && !g_.mutuallyExclusive(st.occupant, rl.signal)) {
        Diagnostic d = diag(
            kEqvRegisterClobber, EntityKind::Register,
            at(nameOf(rl.signal), t, rl.reg, nameOf(st.occupant)),
            util::format("R%d overwritten with '%s' at end of step %d while "
                         "'%s' is live until step %d", rl.reg,
                         nameOf(rl.signal).c_str(), t,
                         nameOf(st.occupant).c_str(), st.death),
            "allocate the signals to disjoint registers");
        const alloc::Lifetime* lt = alloc::findLifetime(d_.lifetimes, st.occupant);
        d.provenance = {
            util::format("'%s' occupies R%d for steps (%d, %d]",
                         nameOf(st.occupant).c_str(), rl.reg,
                         lt ? lt->birth : -1, st.death),
            util::format("'%s' latched into R%d at end of step %d",
                         nameOf(rl.signal).c_str(), rl.reg, t)};
        r_.add(std::move(d));
      }
      st.value = v;
      st.occupant = rl.signal;
      st.death = deathOf(rl.signal, t);
    }
  }

  void execute() {
    regs_.assign(d_.regs.count(), RegState{});
    // Reset state: primary inputs preload their registers.
    for (const rtl::RegLoad* load : idx_.loads[0]) {
      const rtl::RegLoad& rl = *load;
      if (rl.reg < 0 || rl.reg >= static_cast<int>(regs_.size())) continue;
      const dfg::Node& n = g_.node(rl.signal);
      if (n.kind != dfg::OpKind::Input) {
        r_.add(diag(kEqvStepDisagreement, EntityKind::Register,
                    at(n.name, 0, rl.reg),
                    util::format("non-input '%s' preloaded at reset",
                                 n.name.c_str())));
        continue;
      }
      RegState& st = regs_[static_cast<std::size_t>(rl.reg)];
      if (st.occupant != dfg::kNoNode && st.occupant != rl.signal &&
          !g_.mutuallyExclusive(st.occupant, rl.signal))
        r_.add(diag(kEqvRegisterClobber, EntityKind::Register,
                    at(n.name, 0, rl.reg, nameOf(st.occupant)),
                    util::format("reset preload of '%s' clobbers '%s' in R%d",
                                 n.name.c_str(), nameOf(st.occupant).c_str(),
                                 rl.reg)));
      st.value = ideal_[rl.signal];
      st.occupant = rl.signal;
      st.death = deathOf(rl.signal, 0);
    }

    for (int t = 1; t <= fsm_.numSteps; ++t) {
      aluNow_.clear();
      auto done = pending_.find(t);
      if (done != pending_.end()) {
        for (const auto& [alu, op, v] : done->second)
          aluNow_[alu].emplace_back(op, v);
        pending_.erase(done);
      }

      std::vector<const rtl::MicroOp*> todo;
      for (const rtl::MicroOp* m : idx_.issues[static_cast<std::size_t>(t)])
        if (aluInRange(m->alu) && dfg::isSchedulable(g_.node(m->op).kind))
          todo.push_back(m);
      // Chained reads wait for their producer's issue within the same step,
      // so iterate to a fixpoint before declaring a combinational deadlock.
      bool progress = true;
      while (!todo.empty() && progress) {
        progress = false;
        std::vector<const rtl::MicroOp*> blocked;
        for (const rtl::MicroOp* m : todo) {
          if (executeOp(*m, t, /*allowDefer=*/true))
            progress = true;
          else
            blocked.push_back(m);
        }
        todo = std::move(blocked);
      }
      for (const rtl::MicroOp* m : todo)
        executeOp(*m, t, /*allowDefer=*/false);

      latch(t);
    }
  }

  // -- outputs ---------------------------------------------------------------

  void checkOutputs() {
    for (const auto& [node, name] : g_.outputs()) {
      const dfg::Node& n = g_.node(node);
      if (n.kind == dfg::OpKind::Const) continue;  // hardwired literal
      auto reg = d_.regOfSignal.find(node);
      if (reg != d_.regOfSignal.end() && reg->second >= 0 &&
          reg->second < static_cast<int>(regs_.size())) {
        const RegState& st = regs_[static_cast<std::size_t>(reg->second)];
        if (st.value == kNoVn) {
          r_.add(diag(kEqvOutputUnreachable, EntityKind::Register,
                      at(n.name, -1, reg->second, name),
                      util::format("output '%s' register R%d is never "
                                   "written", name.c_str(), reg->second)));
        } else if (st.value != ideal_[node]) {
          const auto [gotText, wantText] =
              renderDistinct(st.value, ideal_[node]);
          Diagnostic d = diag(
              kEqvOutputUnreachable, EntityKind::Register,
              at(n.name, -1, reg->second, name),
              util::format("output '%s' register R%d ends holding %s instead "
                           "of %s", name.c_str(), reg->second,
                           gotText.c_str(), wantText.c_str()));
          d.provenance = {util::format(
              "R%d last latched '%s'", reg->second,
              st.occupant == dfg::kNoNode ? "nothing"
                                          : nameOf(st.occupant).c_str())};
          r_.add(std::move(d));
        }
        continue;
      }
      if (n.kind == dfg::OpKind::Input) continue;  // forwarded input port
      auto it = computed_.find(node);
      if (it == computed_.end())
        r_.add(diag(kEqvOutputUnreachable, EntityKind::Node, at(n.name),
                    util::format("output '%s' is never computed",
                                 name.c_str())));
      else
        r_.add(diag(kEqvOutputUnreachable, EntityKind::Node, at(n.name),
                    util::format("output '%s' is computed but never lands in "
                                 "an output register", name.c_str()),
                    "allocate a register for the output signal"));
    }
  }

  const rtl::Datapath& d_;
  const rtl::ControllerFsm& fsm_;
  const rtl::MicrocodeRom& rom_;
  const dfg::Dfg& g_;
  const rtl::StepIndex idx_;

  LintReport r_;
  ValueNumbering vn_;
  std::vector<Vn> ideal_;
  std::vector<std::map<alloc::Source, int>> busAssign_;
  bool romUsable_ = false;
  std::vector<AluFields> aluFields_;  ///< index = ALU
  std::vector<int> loadField_;        ///< index = register

  std::vector<RegState> regs_;
  std::map<int, std::vector<std::pair<NodeId, Vn>>> aluNow_;
  std::map<int, std::vector<std::tuple<int, NodeId, Vn>>> pending_;
  std::map<NodeId, Vn> computed_;
};

}  // namespace

LintReport proveDatapath(const rtl::Datapath& d, const rtl::ControllerFsm& fsm,
                         const rtl::MicrocodeRom& rom) {
  const trace::Span span("prove");
  return Prover(d, fsm, rom).run();
}

LintReport proveDatapath(const rtl::Datapath& d) {
  const rtl::ControllerFsm fsm = rtl::buildController(d);
  const rtl::MicrocodeRom rom = rtl::buildMicrocode(d, fsm);
  return proveDatapath(d, fsm, rom);
}

}  // namespace mframe::analysis
