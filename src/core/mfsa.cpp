#include "core/mfsa.h"

#include <algorithm>
#include <optional>
#include <set>

#include "alloc/muxopt.h"
#include "core/frames.h"
#include "rtl/controller.h"
#include "core/grid.h"
#include "core/mfs.h"
#include "sched/timeframes.h"
#include "trace/trace.h"
#include "util/strings.h"

namespace mframe::core {

namespace {

using dfg::FuType;
using dfg::NodeId;

/// One allocated ALU during the search. Its module can be *upgraded* to a
/// multifunction superset when a later operation of another type is merged
/// into it ("an addition may be assigned to single or multifunction ALUs
/// such as (+), (+-), (+>) or (+->), based on the cell library").
struct AluState {
  celllib::ModuleId module = 0;
  int index = 0;  ///< 0-based instance index == occupancy column - 1
  std::vector<NodeId> ops;
  alloc::MuxArrangement arrangement;
  double muxCost = 0.0;
};

/// Cheapest library module covering `caps` with the given stage count;
/// nullopt when the library has none.
std::optional<celllib::ModuleId> cheapestCovering(const celllib::CellLibrary& lib,
                                                  const std::set<FuType>& caps,
                                                  int stages) {
  std::optional<celllib::ModuleId> best;
  for (std::size_t i = 0; i < lib.modules().size(); ++i) {
    const celllib::Module& m = lib.modules()[i];
    if (m.stages != stages) continue;
    if (!std::includes(m.caps.begin(), m.caps.end(), caps.begin(), caps.end()))
      continue;
    if (!best || m.areaUm2 < lib.module(*best).areaUm2)
      best = static_cast<celllib::ModuleId>(i);
  }
  return best;
}

}  // namespace

MfsaResult runMfsa(const dfg::Dfg& g, const celllib::CellLibrary& lib,
                   const MfsaOptions& opt) {
  const trace::Span span("mfsa");
  trace::bump(trace::Counter::MfsaRuns);
  MfsaResult res;
  if (auto err = g.validate()) {
    res.error = "invalid DFG: " + *err;
    return res;
  }

  std::set<FuType> neededTypes;
  for (NodeId id : g.operations()) neededTypes.insert(dfg::fuTypeOf(g.node(id).kind));
  if (auto err = lib.checkCoverage(neededTypes)) {
    res.error = *err;
    return res;
  }

  sched::Constraints c = opt.constraints;
  if (c.timeSteps <= 0) {
    res.error = "MFSA needs constraints.timeSteps > 0";
    return res;
  }
  std::string tfError;
  const auto tf = computeTimeFrames(g, c, &tfError);
  if (!tf) {
    res.error = tfError;
    return res;
  }
  // MFSA binds its own modules, so a type may run pipelined exactly when
  // the library has a multi-stage module for it.
  std::set<FuType> pipelinedTypes;
  for (FuType t : neededTypes)
    if (lib.cheapestFor(t, /*pipelined=*/true)) pipelinedTypes.insert(t);
  if (auto why = unschedulableReason(g, c, pipelinedTypes)) {
    res.error = *why;
    return res;
  }
  const int cs = c.timeSteps;

  // Worst per-operation interconnect contribution: the mux table's largest
  // two increments, or (bus mode) two new bus wires plus two taps.
  const double fMuxMax =
      opt.interconnect == InterconnectStyle::Mux
          ? lib.maxMuxIncrement()
          : 2.0 * (opt.busModel.busWireUm2 + opt.busModel.receiverUm2);
  const double C = mfsaTimeConstant(lib, opt.weights) +
                   opt.weights.mux * fMuxMax / std::max(opt.weights.time, 1e-9);
  const double worstContribution =
      opt.weights.time * C * cs + opt.weights.alu * lib.maxModuleArea() +
      opt.weights.mux * fMuxMax + opt.weights.reg * 2.0 * lib.regCost();

  const auto order = topoConsistentOrder(
      g, sched::priorityOrder(g, *tf, opt.priorityRule), &res.error);
  if (!order) return res;

  // One graph snapshot shared by every restart's Schedule — deep-copying a
  // large graph per local-rescheduling round dominated big runs.
  const auto snap = std::make_shared<const dfg::Dfg>(g);
  // For a fixed (ALU, module) the contribution is non-decreasing in the
  // step when f_MUX and f_ALU are step-independent (mux interconnect) and
  // f_TIME and f_REG cannot fall (non-negative weights and costs). Then the
  // earliest feasible step dominates the later ones; otherwise every
  // feasible step is a candidate.
  const bool monotone =
      opt.interconnect == InterconnectStyle::Mux && opt.weights.time >= 0.0 &&
      opt.weights.alu >= 0.0 && opt.weights.mux >= 0.0 &&
      opt.weights.reg >= 0.0 && C >= 0.0 && lib.regCost() >= 0.0;
  const bool greedy = monotone && g.size() >= kMfsaGreedyThreshold;

  // Steps 2-3 of MFS, shared by MFSA: per-type column budgets. current_j
  // starts at the balanced minimum ceil(N_j / cs) and grows only when a move
  // frame comes up empty (local rescheduling).
  std::vector<ColumnBudget> budgets =
      columnBudgets(g, c, *tf, cs, /*balanced=*/true);

  const int maxRestarts =
      static_cast<int>(g.size()) * static_cast<int>(dfg::kNumFuTypes) * 8 + 64;
  int restarts = 0;

  // f_REG bookkeeping: latest cross-step consumer seen per signal, 0 = none
  // recorded yet (placed steps are >= 1, so 0 is free as the sentinel).
  std::vector<int> maxUse(g.size(), 0);

  while (true) {  // local-rescheduling loop
    sched::Schedule s(snap);
    s.setNumSteps(cs);
    ColumnOccupancy occ(g, c);
    FrameCalculator fc(g, c, *tf);
    std::vector<AluState> alus;
    res.termsOf.clear();
    res.liapunovTrace.clear();

    maxUse.assign(g.size(), 0);
    auto producerEnd = [&](NodeId sig) {
      if (!dfg::isSchedulable(g.kindOf(sig))) return 0;  // inputs: before step 1
      return s.isPlaced(sig) ? s.stepOf(sig) + g.cyclesOf(sig) - 1 : 0;
    };
    // Per-input (producerEnd, latest-use) pairs for the operation under
    // consideration, computed once before the candidate loops; neither value
    // changes until the move commits, so every (ALU × step) candidate reads
    // the cached pair instead of redoing the map lookups.
    struct InputState {
      int pe = 0;    ///< producer's last execution step (0 = before step 1)
      int used = 0;  ///< latest cross-step consumer recorded so far
    };
    std::vector<InputState> inState;

    // Instances supporting each FU type, maintained incrementally on commit
    // (fresh ALUs and multifunction upgrades) instead of rescanning `alus`
    // for every operation.
    std::vector<int> support(dfg::kNumFuTypes, 0);
    auto addSupport = [&](celllib::ModuleId m, int sign) {
      for (std::size_t t = 0; t < dfg::kNumFuTypes; ++t)
        if (lib.module(m).supports(static_cast<FuType>(t)))
          support[t] += sign;
    };

    // Bus-mode interconnect bookkeeping: transfers per step and their peak
    // (== bus count). An operand transfers when it is not a hardwired
    // constant; chained reads ride bus wires from the producer ALU too.
    std::vector<int> busTransfers(static_cast<std::size_t>(cs) + 1, 0);
    int busPeak = 0;
    auto busedOperands = [&](NodeId op) {
      int k = 0;
      for (NodeId in : g.node(op).inputs)
        if (g.node(in).kind != dfg::OpKind::Const) ++k;
      return k;
    };
    auto busDelta = [&](NodeId op, int step) {
      const int k = busedOperands(op);
      const int after =
          std::max(busPeak, busTransfers[static_cast<std::size_t>(step)] + k);
      return opt.busModel.busWireUm2 * (after - busPeak) +
             opt.busModel.receiverUm2 * k;
    };

    double v = worstContribution * static_cast<double>(order->size());
    res.liapunovTrace.push_back(v);

    bool restart = false;
    for (NodeId id : *order) {
      const dfg::Node& n = g.node(id);
      const FuType type = dfg::fuTypeOf(n.kind);
      const auto ti = static_cast<std::size_t>(type);

      inState.clear();
      for (NodeId in : n.inputs) {
        if (g.node(in).kind == dfg::OpKind::Const) continue;  // hardwired
        const int pe = producerEnd(in);
        const int used = maxUse[in];
        inState.push_back({pe, used == 0 ? pe : used});
      }
      auto newRegsAt = [&](int step) {
        int count = 0;
        for (const InputState& is : inState)
          // First cross-step consumer of a signal implies a new register;
          // chained / same-step reads need no storage yet.
          if (step > is.pe && is.used <= is.pe) ++count;
        return count;
      };

      // f_MUX of a fresh ALU is the same for every capable module: the
      // arrangement of {id} alone — one signal per populated port.
      const double freshMux = lib.muxCost(n.inputs.empty() ? 0 : 1) +
                              lib.muxCost(n.inputs.size() < 2 ? 0 : 1);

      struct Candidate {
        int alu = -1;                 ///< existing ALU index, or -1 = fresh
        celllib::ModuleId module = 0; ///< module after placement (upgrades!)
        int step = 0;
        MfsaTerms terms;
        double f = 0.0;
      };
      std::vector<Candidate> cands;

      // One dependency window per op serves every candidate ALU.
      const auto dw = fc.depWindow(s, id);

      // f_MUX of `id` on `owner` (nullptr = a fresh ALU): the mux-cost delta
      // under the best arrangement. It does not depend on the step. For an
      // existing ALU the delta is taken against its cached arrangement:
      // exact on small graphs, and the O(1) greedy append that the commit
      // below performs on large ones.
      auto muxTerm = [&](const AluState* owner) {
        if (owner == nullptr) return freshMux;
        const auto d =
            greedy ? alloc::appendDelta(g, owner->arrangement, id)
                   : alloc::arrangeInputsDelta(g, owner->arrangement,
                                               owner->ops, id);
        return lib.muxCost(static_cast<int>(d.left)) +
               lib.muxCost(static_cast<int>(d.right)) - owner->muxCost;
      };

      auto pushSteps = [&](AluState* owner, celllib::ModuleId module,
                           double fAlu) {
        // Interconnect term: the mux delta, priced once at the ALU's first
        // free step so an ALU with none costs no pricing, or the bus-cost
        // delta, which depends on the chosen step.
        const bool mux = opt.interconnect == InterconnectStyle::Mux;
        const int aluIdx = owner ? owner->index : -1;
        const int first = dw.firstStep(tf->asap(id), tf->alap(id));
        const int last = dw.lastStep(first, tf->alap(id));
        // The first dependency-feasible step from `from` on where the ALU
        // can take the op, 0 when none. The ALU's walk jumps over its full
        // steps; a fresh ALU is empty.
        auto open = [&](int from) {
          if (from == 0 || from > last) return 0;
          return aluIdx < 0 ? from
                            : occ.firstPlaceable(id, aluIdx + 1, from, last);
        };
        std::optional<double> fMux;
        for (int step = open(first); step != 0; step = open(step + 1)) {
          if (mux && !fMux) fMux = muxTerm(owner);
          Candidate cd;
          cd.alu = aluIdx;
          cd.module = module;
          cd.step = step;
          cd.terms.fTime = C * step;
          cd.terms.fAlu = fAlu;
          cd.terms.fMux = mux ? *fMux : busDelta(id, step);
          cd.terms.fReg = lib.regCost() * newRegsAt(step);
          cd.f = cd.terms.weighted(opt.weights);
          cands.push_back(cd);
          // A monotone f and the earlier-step tie-break make this step
          // dominate every later one for this (ALU, module).
          if (monotone) break;
        }
      };

      auto generate = [&] {
        cands.clear();
        const std::uint64_t probes0 = occ.walkProbes();
        const bool budgetOpen = support[ti] < budgets[ti].current;
        for (AluState& a : alus) {
          const celllib::Module& m = lib.module(a.module);
          if (opt.style == rtl::DesignStyle::NoSelfLoop) {
            // Section 4.2 style 2: an operation may not share an ALU with a
            // predecessor or successor.
            bool clash = false;
            for (NodeId p : g.opPreds(id))
              if (std::find(a.ops.begin(), a.ops.end(), p) != a.ops.end())
                clash = true;
            for (NodeId sc : g.opSuccs(id))
              if (std::find(a.ops.begin(), a.ops.end(), sc) != a.ops.end())
                clash = true;
            if (clash) continue;
          }
          if (m.supports(type)) {
            pushSteps(&a, a.module, /*fAlu=*/0.0);
          } else if (budgetOpen) {
            // Merge by upgrading the ALU to a multifunction superset:
            // f_ALU = the area increment of the richer module.
            std::set<FuType> caps = m.caps;
            caps.insert(type);
            if (auto up = cheapestCovering(lib, caps, m.stages)) {
              const double delta = lib.module(*up).areaUm2 - m.areaUm2;
              pushSteps(&a, *up, delta);
            }
          }
        }
        if (budgetOpen) {
          // A fresh ALU keeps its module's occupancy rule too.
          for (celllib::ModuleId m : lib.capableModules(type))
            if (!overlapsOwnInitiation(n.cycles, c.latency,
                                       lib.module(m).stages > 1))
              pushSteps(nullptr, m, lib.module(m).areaUm2);
        }
        trace::bump(trace::Counter::MfsaCandidates, cands.size());
        trace::bump(trace::Counter::MfsaOccupancyProbes,
                    occ.walkProbes() - probes0);
      };

      // On an exact Liapunov tie, prefer the earlier step, then *reuse* —
      // an existing instance (lowest index) beats opening a fresh ALU.
      // (Ranking fresh candidates, alu == -1, ahead of existing ones used to
      // open a needless instance whenever costs tie, e.g. under w_A = 0.)
      // Equal ranks keep the first-encountered candidate, preserving the
      // library order among fresh modules.
      auto rankOf = [](const Candidate& cd) {
        return std::make_tuple(cd.step, cd.alu < 0 ? 1 : 0,
                               cd.alu < 0 ? 0 : cd.alu);
      };
      auto pick = [&]() -> const Candidate* {
        const Candidate* best = nullptr;
        for (const Candidate& cd : cands)
          if (!best || cd.f < best->f ||
              (cd.f == best->f && rankOf(cd) < rankOf(*best)))
            best = &cd;
        return best;
      };

      generate();
      const Candidate* chosen = pick();
      if (!chosen && greedy && budgets[ti].widen()) {
        // Large-graph local rescheduling: widen the column budget in place
        // and retry this one operation — the widening opens a fresh-ALU
        // candidate at the dependency window's first step, so earlier
        // placements stay valid and the pass never re-runs from scratch.
        // (Small graphs keep the full restart below: re-placing every op
        // from scratch is what the paper-benchmark goldens pin down, but it
        // multiplies total work by the restart count, which dominated
        // 10^5-op runs.) If even a fresh ALU has no feasible step, the
        // dependency window itself is empty and only a full restart can
        // help, so fall through.
        if (++restarts > maxRestarts) {
          res.error = "MFSA restart budget exhausted";
          return res;
        }
        trace::bump(trace::Counter::MfsaRestarts);
        generate();
        chosen = pick();
      }

      if (!chosen) {
        // Empty move frame: widen the type's column budget and reschedule
        // locally (Section 3.2 step 4 / Section 4.2).
        if (!budgets[ti].widen()) {
          res.error = util::format(
              "no feasible MFSA position for '%s' within %d %s ALUs",
              n.name.c_str(), budgets[ti].max,
              std::string(dfg::fuTypeName(type)).c_str());
          return res;
        }
        if (++restarts > maxRestarts) {
          res.error = "MFSA restart budget exhausted";
          return res;
        }
        trace::bump(trace::Counter::MfsaRestarts);
        restart = true;
        break;
      }

      // Commit the move.
      int aluIdx = chosen->alu;
      if (aluIdx < 0) {
        AluState a;
        a.index = static_cast<int>(alus.size());
        alus.push_back(std::move(a));
        aluIdx = alus.back().index;
        if (lib.module(chosen->module).stages > 1)
          occ.setPipelined(aluIdx + 1, true);
        addSupport(chosen->module, +1);
      } else if (alus[static_cast<std::size_t>(aluIdx)].module !=
                 chosen->module) {
        // Multifunction upgrade: swap the instance's capability set.
        addSupport(alus[static_cast<std::size_t>(aluIdx)].module, -1);
        addSupport(chosen->module, +1);
      }
      AluState& a = alus[static_cast<std::size_t>(aluIdx)];
      a.module = chosen->module;  // fresh assignment or upgrade
      // Large graphs commit the op into the cached arrangement in O(1)
      // (exact in the commutative / already-pinned cases, greedy with
      // bounded drift otherwise — re-arranging the whole op list per commit
      // is quadratic in ops-per-ALU). Small graphs rebuild it from the
      // complete op list, keeping the provably minimal arrangement.
      a.ops.push_back(id);
      if (greedy) {
        alloc::appendToArrangement(g, a.arrangement, id);
      } else {
        a.arrangement = alloc::arrangeInputs(g, a.ops);
      }
      a.muxCost = alloc::muxCostOf(lib, a.arrangement);
      trace::bump(trace::Counter::MfsaCommits);

      occ.place(id, aluIdx + 1, chosen->step);
      s.place(id, chosen->step, aluIdx + 1);
      fc.recordPlacement(s, id, chosen->step);
      if (opt.interconnect == InterconnectStyle::Bus) {
        busTransfers[static_cast<std::size_t>(chosen->step)] += busedOperands(id);
        busPeak = std::max(busPeak,
                           busTransfers[static_cast<std::size_t>(chosen->step)]);
      }
      for (NodeId in : n.inputs) {
        if (g.node(in).kind == dfg::OpKind::Const) continue;
        if (chosen->step > producerEnd(in))
          maxUse[in] = std::max(maxUse[in], chosen->step);
      }

      res.termsOf[id] = chosen->terms;
      trace::bump(trace::Counter::LiapunovUpdates);
      v -= worstContribution - chosen->f;
      res.liapunovTrace.push_back(v);
    }
    if (restart) continue;

    // Assemble the RTL structure and its cost.
    std::vector<rtl::AluInstance> insts;
    insts.reserve(alus.size());
    for (const AluState& a : alus) insts.push_back({a.module, a.index, a.ops});
    res.datapath = rtl::buildDatapath(g, lib, s, std::move(insts));
    res.cost = rtl::evaluateCost(res.datapath);
    if (opt.interconnect == InterconnectStyle::Bus) {
      // Replace the mux interconnect area by the final shared-bus plan.
      const auto fsm = rtl::buildController(res.datapath);
      res.busPlan = rtl::planBuses(res.datapath, fsm, opt.busModel);
      res.cost.muxArea = res.busPlan->totalCost;
      res.cost.total = res.cost.aluArea + res.cost.regArea + res.cost.muxArea;
    }
    res.steps = cs;
    res.restarts = restarts;
    res.feasible = true;
    return res;
  }
}

MfsaResult runMfsaResourceConstrained(const dfg::Dfg& g,
                                      const celllib::CellLibrary& lib,
                                      MfsaOptions opt, int maxStepsCap) {
  MfsaResult last;
  std::string tfError;
  sched::Constraints probe = opt.constraints;
  probe.timeSteps = 0;
  const auto tf = computeTimeFrames(g, probe, &tfError);
  if (!tf) {
    last.error = tfError;
    return last;
  }
  int cs = std::max(opt.constraints.timeSteps, tf->criticalSteps());
  for (; cs <= maxStepsCap; ++cs) {
    opt.constraints.timeSteps = cs;
    last = runMfsa(g, lib, opt);
    if (last.feasible) return last;
    // Infeasibility under hard budgets surfaces as an exhausted column
    // budget; any other error will not improve with more steps.
    if (last.error.find("no feasible MFSA position") == std::string::npos)
      return last;
  }
  last.error = util::format("no feasible design within %d steps", maxStepsCap);
  return last;
}

}  // namespace mframe::core
