#include "core/mfsa.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "analysis/sched_rules.h"
#include "celllib/library_io.h"
#include "celllib/ncr_like.h"
#include "dfg/builder.h"
#include "helpers.h"
#include "rtl/bus.h"
#include "rtl/controller.h"
#include "rtl/verify.h"
#include "sched/timeframes.h"
#include "trace/trace.h"
#include "util/strings.h"
#include "workloads/benchmarks.h"
#include "workloads/random_dfg.h"

namespace mframe::core {
namespace {

MfsaResult run(const dfg::Dfg& g, int cs,
               rtl::DesignStyle style = rtl::DesignStyle::Unrestricted,
               MfsaWeights w = {}) {
  const celllib::CellLibrary lib = celllib::ncrLike();
  MfsaOptions o;
  o.constraints.timeSteps = cs;
  o.style = style;
  o.weights = w;
  return runMfsa(g, lib, o);
}

TEST(Mfsa, DiamondProducesVerifiedDatapath) {
  const auto r = run(test::smallDiamond(), 3);
  ASSERT_TRUE(r.feasible) << r.error;
  sched::Constraints c;
  c.timeSteps = 3;
  EXPECT_TRUE(rtl::verifyDatapath(r.datapath, c, rtl::DesignStyle::Unrestricted)
                  .empty());
  EXPECT_GT(r.cost.total, 0.0);
  EXPECT_EQ(r.cost.total, r.cost.aluArea + r.cost.regArea + r.cost.muxArea);
}

TEST(Mfsa, WholeSuiteBothStylesVerifyClean) {
  const celllib::CellLibrary lib = celllib::ncrLike();
  for (const auto& bc : workloads::paperSuite()) {
    for (auto style :
         {rtl::DesignStyle::Unrestricted, rtl::DesignStyle::NoSelfLoop}) {
      MfsaOptions o;
      o.constraints = bc.constraints;
      o.constraints.timeSteps = bc.timeSweep.front();
      o.style = style;
      const auto r = runMfsa(bc.graph, lib, o);
      ASSERT_TRUE(r.feasible) << bc.id << ": " << r.error;
      EXPECT_TRUE(rtl::verifyDatapath(r.datapath, o.constraints, style).empty())
          << bc.id;
      // The underlying schedule also satisfies precedence/timing.
      auto v =
          analysis::lintSchedule(r.datapath.schedule, o.constraints).messages();
      // Column semantics differ (global ALU index), so only filter
      // precedence/chaining complaints here.
      for (const auto& msg : v)
        EXPECT_EQ(msg.find("precedence"), std::string::npos) << bc.id << " " << msg;
    }
  }
}

TEST(Mfsa, BudgetKeepsAlusNearBalancedMinimum) {
  // diffeq at T=4: six muls -> ceil(6/4) = 2 mult-capable ALUs is the
  // balanced floor; the greedy may add a little, but must stay far from the
  // 6-ALU explosion a naive earliest-step allocator would produce.
  const auto r = run(workloads::diffeq(), 4);
  ASSERT_TRUE(r.feasible) << r.error;
  int mulCapable = 0;
  for (const auto& a : r.datapath.alus)
    if (r.datapath.lib->module(a.module).supports(dfg::FuType::Multiplier))
      ++mulCapable;
  EXPECT_GE(mulCapable, 2);
  EXPECT_LE(mulCapable, 3);
}

TEST(Mfsa, MultifunctionMergingHappens) {
  // With generous time, cheap ops should merge into multifunction ALUs
  // instead of one single-function unit each.
  const auto r = run(test::smallDiamond(), 4);
  ASSERT_TRUE(r.feasible) << r.error;
  EXPECT_LT(r.datapath.alus.size(), r.datapath.graph->operations().size());
}

TEST(Mfsa, Style2ForbidsSelfLoops) {
  const auto r = run(workloads::diffeq(), 4, rtl::DesignStyle::NoSelfLoop);
  ASSERT_TRUE(r.feasible) << r.error;
  sched::Constraints c;
  c.timeSteps = 4;
  EXPECT_TRUE(
      rtl::verifyDatapath(r.datapath, c, rtl::DesignStyle::NoSelfLoop).empty());
  // Manually confirm: no ALU holds an op together with one of its preds.
  const dfg::Dfg& g = *r.datapath.graph;
  for (const auto& a : r.datapath.alus)
    for (dfg::NodeId op : a.ops)
      for (dfg::NodeId p : g.opPreds(op))
        EXPECT_EQ(std::count(a.ops.begin(), a.ops.end(), p), 0);
}

TEST(Mfsa, Style2CostsAtLeastStyle1Usually) {
  // The paper reports a 2-11% overhead for style 2; on the suite's first
  // sweep point, style 2 must never be dramatically *cheaper*.
  const celllib::CellLibrary lib = celllib::ncrLike();
  for (const auto& bc : workloads::paperSuite()) {
    MfsaOptions o;
    o.constraints = bc.constraints;
    o.constraints.timeSteps = bc.timeSweep.front();
    const auto r1 = runMfsa(bc.graph, lib, o);
    o.style = rtl::DesignStyle::NoSelfLoop;
    const auto r2 = runMfsa(bc.graph, lib, o);
    ASSERT_TRUE(r1.feasible && r2.feasible) << bc.id;
    EXPECT_GE(r2.cost.total, 0.95 * r1.cost.total) << bc.id;
  }
}

TEST(Mfsa, LiapunovTraceDecreasesMonotonically) {
  const auto r = run(workloads::diffeq(), 4);
  ASSERT_TRUE(r.feasible);
  ASSERT_GE(r.liapunovTrace.size(), 2u);
  for (std::size_t i = 1; i < r.liapunovTrace.size(); ++i)
    EXPECT_LE(r.liapunovTrace[i], r.liapunovTrace[i - 1]);
  EXPECT_LT(r.liapunovTrace.back(), r.liapunovTrace.front());
}

TEST(Mfsa, TermsRecordedForEveryOperation) {
  const auto r = run(workloads::tseng(), 4);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.termsOf.size(), r.datapath.graph->operations().size());
  for (const auto& [op, t] : r.termsOf) {
    EXPECT_GT(t.fTime, 0.0);
    EXPECT_GE(t.fAlu, 0.0);
    EXPECT_GE(t.fReg, 0.0);
  }
}

TEST(Mfsa, TimeTermDominance) {
  // Section 4.1: C guarantees an op never trades a later step for cheaper
  // hardware. Verify on the recorded terms: fTime increments exceed any
  // hardware contribution.
  const celllib::CellLibrary lib = celllib::ncrLike();
  const double C = mfsaTimeConstant(lib, MfsaWeights{});
  const auto r = run(workloads::diffeq(), 4);
  ASSERT_TRUE(r.feasible);
  for (const auto& [op, t] : r.termsOf)
    EXPECT_LT(t.fAlu + std::abs(t.fMux) + t.fReg, C);
}

TEST(Mfsa, RejectsMissingTimeConstraint) {
  const celllib::CellLibrary lib = celllib::ncrLike();
  MfsaOptions o;
  const auto r = runMfsa(test::smallDiamond(), lib, o);
  EXPECT_FALSE(r.feasible);
}

TEST(Mfsa, RejectsUncoveredLibrary) {
  celllib::CellLibrary tiny;  // knows nothing
  MfsaOptions o;
  o.constraints.timeSteps = 3;
  const auto r = runMfsa(test::smallDiamond(), tiny, o);
  EXPECT_FALSE(r.feasible);
  EXPECT_NE(r.error.find("no module"), std::string::npos);
}

TEST(Mfsa, RegWeightReducesRegisterCount) {
  // Pushing w_REG up should never yield more registers than the default.
  const auto base = run(workloads::fir8(), 9);
  const auto heavy = run(workloads::fir8(), 9, rtl::DesignStyle::Unrestricted,
                         MfsaWeights{.time = 1, .alu = 1, .mux = 1, .reg = 50});
  ASSERT_TRUE(base.feasible && heavy.feasible);
  EXPECT_LE(heavy.cost.regCount, base.cost.regCount + 1);
}

TEST(Mfsa, SingleCycleConstraintForcesMaxParallelHardware) {
  // Everything in one step: every op needs its own ALU.
  const auto r = run(test::addParallel(4), 1);
  ASSERT_TRUE(r.feasible) << r.error;
  EXPECT_EQ(r.datapath.alus.size(), 4u);
}

TEST(Mfsa, BusInterconnectModeProducesAPlan) {
  const celllib::CellLibrary lib = celllib::ncrLike();
  core::MfsaOptions o;
  o.constraints.timeSteps = 4;
  o.interconnect = InterconnectStyle::Bus;
  const auto r = runMfsa(workloads::diffeq(), lib, o);
  ASSERT_TRUE(r.feasible) << r.error;
  ASSERT_TRUE(r.busPlan.has_value());
  EXPECT_GT(r.busPlan->busCount, 0);
  // The reported interconnect area is the bus plan's, not the muxes'.
  EXPECT_DOUBLE_EQ(r.cost.muxArea, r.busPlan->totalCost);
  EXPECT_DOUBLE_EQ(r.cost.total,
                   r.cost.aluArea + r.cost.regArea + r.cost.muxArea);
  // The datapath itself still verifies (the binding is architecture-neutral).
  sched::Constraints c;
  c.timeSteps = 4;
  EXPECT_TRUE(rtl::verifyDatapath(r.datapath, c, rtl::DesignStyle::Unrestricted)
                  .empty());
}

TEST(Mfsa, BusModeTraceStillMonotone) {
  const celllib::CellLibrary lib = celllib::ncrLike();
  core::MfsaOptions o;
  o.constraints.timeSteps = 17;
  o.interconnect = InterconnectStyle::Bus;
  const auto r = runMfsa(workloads::ewfLike(), lib, o);
  ASSERT_TRUE(r.feasible) << r.error;
  for (std::size_t i = 1; i < r.liapunovTrace.size(); ++i)
    EXPECT_LE(r.liapunovTrace[i], r.liapunovTrace[i - 1]);
}

TEST(Mfsa, BusModeSpreadsTransfers) {
  // With bus wires priced high, the allocator should avoid piling operand
  // transfers into one step: its peak is no worse than mux-mode's.
  const celllib::CellLibrary lib = celllib::ncrLike();
  auto peakOf = [&](InterconnectStyle style, double wire) {
    core::MfsaOptions o;
    o.constraints.timeSteps = 9;
    o.interconnect = style;
    o.busModel.busWireUm2 = wire;
    const auto r = runMfsa(workloads::fir8(), lib, o);
    EXPECT_TRUE(r.feasible);
    const auto fsm = rtl::buildController(r.datapath);
    return rtl::planBuses(r.datapath, fsm, o.busModel).busCount;
  };
  EXPECT_LE(peakOf(InterconnectStyle::Bus, 5000.0),
            peakOf(InterconnectStyle::Mux, 5000.0));
}

TEST(Mfsa, ResourceConstrainedMinimizesSteps) {
  // One multiplier-capable ALU: six multiplications must serialize, so the
  // smallest feasible schedule is >= 6 steps — and the search finds it.
  const celllib::CellLibrary lib = celllib::ncrLike();
  MfsaOptions o;
  o.constraints.fuLimit[dfg::FuType::Multiplier] = 1;
  const auto r = runMfsaResourceConstrained(workloads::diffeq(), lib, o);
  ASSERT_TRUE(r.feasible) << r.error;
  EXPECT_GE(r.steps, 6);
  EXPECT_LE(r.steps, 9);
  int mulCapable = 0;
  for (const auto& a : r.datapath.alus)
    if (r.datapath.lib->module(a.module).supports(dfg::FuType::Multiplier))
      ++mulCapable;
  EXPECT_EQ(mulCapable, 1);
  sched::Constraints c;
  c.timeSteps = r.steps;
  EXPECT_TRUE(rtl::verifyDatapath(r.datapath, c, rtl::DesignStyle::Unrestricted)
                  .empty());
}

TEST(Mfsa, ResourceConstrainedMatchesTimeModeWhenBudgetAmple) {
  const celllib::CellLibrary lib = celllib::ncrLike();
  MfsaOptions o;
  o.constraints.fuLimit[dfg::FuType::Multiplier] = 3;
  const auto r = runMfsaResourceConstrained(workloads::diffeq(), lib, o);
  ASSERT_TRUE(r.feasible) << r.error;
  EXPECT_EQ(r.steps, 4);  // the critical path, as in time mode
}

TEST(Mfsa, ResourceConstrainedRespectsSearchCap) {
  const celllib::CellLibrary lib = celllib::ncrLike();
  MfsaOptions o;
  o.constraints.fuLimit[dfg::FuType::Multiplier] = 1;
  // Cap below the first feasible length: the search must give up cleanly.
  const auto r = runMfsaResourceConstrained(workloads::diffeq(), lib, o, 5);
  EXPECT_FALSE(r.feasible);
}

TEST(Mfsa, UnschedulableChainedOpSpendsNoRestarts) {
  // Chaining at a 50 ns clock: no control step holds a 160 ns multiply, so
  // no local-rescheduling restart can help.
  const celllib::CellLibrary lib = celllib::ncrLike();
  MfsaOptions o;
  o.constraints.timeSteps = 6;
  o.constraints.allowChaining = true;
  o.constraints.clockNs = 50.0;
  const test::CounterScope counters;
  const auto before = trace::counterValue(trace::Counter::MfsaRestarts);
  const auto r = runMfsa(workloads::diffeq(), lib, o);
  EXPECT_FALSE(r.feasible);
  EXPECT_NE(r.error.find("fits no control step"), std::string::npos)
      << r.error;
  EXPECT_EQ(trace::counterValue(trace::Counter::MfsaRestarts), before);
}

TEST(Mfsa, OpLongerThanLatencyNeedsAPipelinedModule) {
  MfsaOptions o;
  o.constraints = test::latencyOne();
  const auto r =
      runMfsa(test::multicycleChain(), celllib::ncrLike(), o);
  EXPECT_FALSE(r.feasible);
  EXPECT_TRUE(test::namesSelfOverlap(r.error)) << r.error;

  // The one-stage multiplier is cheaper, but a fresh ALU keeps its module's
  // rule: only the two-stage multiplier can restart every step.
  o.constraints.pipelinedFus.insert(dfg::FuType::Multiplier);
  const celllib::CellLibrary lib =
      celllib::ncrLike({.pipelinedMultiplier = true});
  const auto p = runMfsa(test::multicycleChain(), lib, o);
  ASSERT_TRUE(p.feasible) << p.error;
  for (const rtl::AluInstance& a : p.datapath.alus) {
    if (lib.module(a.module).supports(dfg::FuType::Multiplier)) {
      EXPECT_GT(lib.module(a.module).stages, 1);
    }
  }
  EXPECT_TRUE(rtl::verifyDatapath(p.datapath, o.constraints,
                                  rtl::DesignStyle::Unrestricted)
                  .empty());

  // MFSA binds its own modules, so the library decides what is pipelined:
  // pipelinedFus cannot stand in for a missing multi-stage module (the op
  // is named before the search, not after exhausting the restart budget)...
  const test::CounterScope counters;
  const auto before = trace::counterValue(trace::Counter::MfsaRestarts);
  const auto q = runMfsa(test::multicycleChain(), celllib::ncrLike(), o);
  EXPECT_FALSE(q.feasible);
  EXPECT_TRUE(test::namesSelfOverlap(q.error)) << q.error;
  EXPECT_EQ(trace::counterValue(trace::Counter::MfsaRestarts), before);

  // ...and a library whose only multiplier has two stages needs none.
  o.constraints.pipelinedFus.clear();
  const celllib::CellLibrary twoStage = celllib::parseLibrary(
      "library p2\n"
      "reg 1800\n"
      "mux 0 0 620 950 1260\n"
      "module mul16p2 area=17500 delay=90 caps=mul stages=2\n"
      "module add16 area=4000 delay=40 caps=add\n");
  const auto t = runMfsa(test::multicycleChain(), twoStage, o);
  ASSERT_TRUE(t.feasible) << t.error;
  EXPECT_TRUE(rtl::verifyDatapath(t.datapath, o.constraints,
                                  rtl::DesignStyle::Unrestricted)
                  .empty());
}

TEST(Mfsa, UnschedulableZeroBudgetStopsTheLengthSearch) {
  // A zero multiplier budget holds at every length: one runMfsa call must
  // settle it instead of one per cs up to the cap.
  const celllib::CellLibrary lib = celllib::ncrLike();
  MfsaOptions o;
  o.constraints.fuLimit[dfg::FuType::Multiplier] = 0;
  const test::CounterScope counters;
  const auto before = trace::counterValue(trace::Counter::MfsaRuns);
  const auto r = runMfsaResourceConstrained(workloads::diffeq(), lib, o);
  EXPECT_FALSE(r.feasible);
  EXPECT_NE(r.error.find("multiplier budget 0"), std::string::npos) << r.error;
  EXPECT_EQ(trace::counterValue(trace::Counter::MfsaRuns) - before, 1u);

  // A zero budget for a type the graph does not use stays legal.
  MfsaOptions unused;
  unused.constraints.timeSteps = 4;
  unused.constraints.fuLimit[dfg::FuType::Divider] = 0;
  const auto ok = runMfsa(workloads::diffeq(), lib, unused);
  EXPECT_TRUE(ok.feasible) << ok.error;
}

TEST(Mfsa, TieBreakPrefersReusingAnAluOverAllocatingFresh) {
  // a1 (+) followed by a dependent s1 (-), two steps, pure time weighting:
  // with w_ALU = 0 the upgrade of the existing ALU to an add/sub module and
  // a fresh subtractor produce the same Liapunov value. The tie must go to
  // reuse — one multifunction ALU, not two units.
  dfg::Builder b("tie");
  const auto x = b.input("x");
  const auto y = b.input("y");
  const auto a1 = b.add(x, y, "a1");
  const auto s1 = b.sub(a1, y, "s1");
  b.output(s1, "o");
  const dfg::Dfg g = std::move(b).build();
  const auto r = run(g, 2, rtl::DesignStyle::Unrestricted,
                     MfsaWeights{.time = 1, .alu = 0, .mux = 0, .reg = 0});
  ASSERT_TRUE(r.feasible) << r.error;
  ASSERT_EQ(r.datapath.alus.size(), 1u);
  const auto& mod = r.datapath.lib->module(r.datapath.alus[0].module);
  EXPECT_TRUE(mod.supports(dfg::FuType::Adder));
  EXPECT_TRUE(mod.supports(dfg::FuType::Subtractor));
}

TEST(Mfsa, NegativeTimeWeightKeepsEveryFeasibleStep) {
  // With w_T < 0, f falls as the step grows, so an ALU's earliest feasible
  // step no longer dominates its later ones and every step of the move
  // frame must stay a candidate. Keeping only the earliest step would pull
  // m1 and m6 into step 1; the full scan leaves step 1 empty.
  const auto r = run(workloads::diffeq(), 6, rtl::DesignStyle::Unrestricted,
                     MfsaWeights{.time = -1, .alu = 1, .mux = 1, .reg = 1});
  ASSERT_TRUE(r.feasible) << r.error;
  EXPECT_EQ(r.datapath.schedule.toString(),
            "schedule of 'diffeq' in 6 steps\n"
            "  step  1:\n"
            "  step  2: m6(*)@2\n"
            "  step  3: m1(*)@1 m2(*)@2\n"
            "  step  4: m3(*)@2 m4(*)@1\n"
            "  step  5: m5(*)@1 s1(-)@2 x1(+)@3\n"
            "  step  6: u1(-)@2 y1(+)@3 c1(<)@4\n");
}

TEST(Mfsa, MutuallyExclusiveOpsShareAlu) {
  const auto r = run(test::branchy(), 2);
  ASSERT_TRUE(r.feasible) << r.error;
  // t1/e1 are exclusive adds; they can live in one ALU at one step.
  int addCapable = 0;
  for (const auto& a : r.datapath.alus)
    if (r.datapath.lib->module(a.module).supports(dfg::FuType::Adder))
      ++addCapable;
  EXPECT_EQ(addCapable, 1);
}

/// FNV-1a of every op's `name step ALU` line.
std::uint64_t placementDigest(const dfg::Dfg& g, const MfsaResult& r) {
  std::string listing;
  for (dfg::NodeId id : g.operations())
    listing += util::format("%s %d %d\n", g.node(id).name.c_str(),
                            r.datapath.schedule.stepOf(id),
                            r.datapath.schedule.columnOf(id));
  return test::fnv1a(listing);
}

/// A seeded layered design with `branchPercent` of its ops in conditional
/// arms, `mulPercent` multiplications and 30% of those taking two cycles.
dfg::Dfg conditionalDesign(int ops, int width, std::uint32_t seed,
                           int branchPercent, int mulPercent) {
  workloads::RandomDfgOptions ro;
  ro.topology = workloads::DfgTopology::Layered;
  ro.numOps = ops;
  ro.layerWidth = width;
  ro.seed = seed;
  ro.branchPercent = branchPercent;
  ro.mulPercent = mulPercent;
  ro.twoCyclePercent = 30;
  return workloads::randomDfg(ro);
}

// The per-ALU walk jumps over each ALU's full steps
// (ColumnOccupancy::firstPlaceable). These digests were recorded with the
// walk it replaced, canPlace() at every step in turn: on conditional
// designs, whose cells of exclusive ops the walk still probes, below and
// above kMfsaGreedyThreshold, and under a latency, where one folded cell
// stands for many steps.
TEST(Mfsa, PlacementMatchesTheStepWalkOnConditionalAndFoldedDesigns) {
  const celllib::CellLibrary lib = celllib::ncrLike();
  const struct {
    dfg::Dfg g;
    int latency;
    std::uint64_t digest;
  } cases[] = {
      {conditionalDesign(300, 8, 5, 40, 40), 0, 0x2f4d4ea7c292e82eull},
      {conditionalDesign(2500, 24, 5, 40, 40), 0, 0x22662335c6ba05b5ull},
      {workloads::ewfLike(), 3, 0xbde09f3d187ec4e0ull},
      {conditionalDesign(300, 8, 9, 30, 25), 8, 0x4ea381bc0b808eafull},
  };
  for (const auto& c : cases) {
    MfsaOptions o;
    o.constraints.latency = c.latency;
    o.constraints.timeSteps =
        sched::computeTimeFrames(c.g, o.constraints)->criticalSteps() + 1;
    const MfsaResult r = runMfsa(c.g, lib, o);
    ASSERT_TRUE(r.feasible) << c.g.name() << ": " << r.error;
    EXPECT_EQ(placementDigest(c.g, r), c.digest)
        << c.g.name() << " ops " << c.g.operations().size() << " latency "
        << c.latency;
  }
}

}  // namespace
}  // namespace mframe::core
