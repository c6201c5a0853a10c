#include "core/mfs.h"

#include <gtest/gtest.h>

#include "analysis/sched_rules.h"
#include "dfg/builder.h"
#include "helpers.h"
#include "trace/trace.h"
#include "workloads/benchmarks.h"

namespace mframe::core {
namespace {

using dfg::FuType;

MfsResult timeRun(const dfg::Dfg& g, int cs) {
  MfsOptions o;
  o.constraints.timeSteps = cs;
  return runMfs(g, o);
}

int fu(const MfsResult& r, FuType t) {
  auto it = r.fuCount.find(t);
  return it == r.fuCount.end() ? 0 : it->second;
}

TEST(Mfs, DiffeqAtFourStepsNeedsTwoMultipliers) {
  const auto r = timeRun(workloads::diffeq(), 4);
  ASSERT_TRUE(r.feasible) << r.error;
  EXPECT_EQ(fu(r, FuType::Multiplier), 2);  // the classic HAL result
  EXPECT_EQ(fu(r, FuType::Adder), 1);
  EXPECT_EQ(fu(r, FuType::Subtractor), 1);
  EXPECT_EQ(fu(r, FuType::Comparator), 1);
}

TEST(Mfs, DiffeqAtEightStepsNeedsOneMultiplier) {
  const auto r = timeRun(workloads::diffeq(), 8);
  ASSERT_TRUE(r.feasible) << r.error;
  EXPECT_EQ(fu(r, FuType::Multiplier), 1);
}

TEST(Mfs, TsengAdderCountDropsWithMoreTime) {
  const auto r4 = timeRun(workloads::tseng(), 4);
  const auto r5 = timeRun(workloads::tseng(), 5);
  ASSERT_TRUE(r4.feasible) << r4.error;
  ASSERT_TRUE(r5.feasible) << r5.error;
  EXPECT_EQ(fu(r4, FuType::Adder), 2);
  EXPECT_EQ(fu(r5, FuType::Adder), 1);
}

TEST(Mfs, SchedulesVerifyCleanAcrossTheSuite) {
  for (const auto& bc : workloads::paperSuite()) {
    for (int cs : bc.timeSweep) {
      MfsOptions o;
      o.constraints = bc.constraints;
      o.constraints.timeSteps = cs;
      const auto r = runMfs(bc.graph, o);
      ASSERT_TRUE(r.feasible) << bc.id << " T=" << cs << ": " << r.error;
      EXPECT_TRUE(analysis::lintSchedule(r.schedule, o.constraints).empty())
          << bc.id << " T=" << cs;
    }
  }
}

TEST(Mfs, RejectsConstraintBelowCriticalPath) {
  const auto r = timeRun(test::addChain(5), 4);
  EXPECT_FALSE(r.feasible);
  EXPECT_NE(r.error.find("critical path"), std::string::npos);
}

TEST(Mfs, RejectsMissingTimeConstraint) {
  MfsOptions o;  // timeSteps = 0 in time mode
  const auto r = runMfs(test::addChain(2), o);
  EXPECT_FALSE(r.feasible);
}

TEST(Mfs, EmptyGraphIsTriviallyFeasible) {
  dfg::Builder b("empty");
  b.input("x");
  const auto g = std::move(b).build();
  MfsOptions o;
  o.constraints.timeSteps = 1;
  const auto r = runMfs(g, o);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.steps, 0);
}

TEST(Mfs, HonorsUserResourceBoundInTimeMode) {
  // 4 independent adds, 2 steps, limit 2 adders: tight but feasible.
  MfsOptions o;
  o.constraints.timeSteps = 2;
  o.constraints.fuLimit[FuType::Adder] = 2;
  const auto r = runMfs(test::addParallel(4), o);
  ASSERT_TRUE(r.feasible) << r.error;
  EXPECT_LE(fu(r, FuType::Adder), 2);
  EXPECT_TRUE(analysis::lintSchedule(r.schedule, o.constraints).empty());
}

TEST(Mfs, InfeasibleUnderHardResourceBound) {
  MfsOptions o;
  o.constraints.timeSteps = 1;
  o.constraints.fuLimit[FuType::Adder] = 1;
  const auto r = runMfs(test::addParallel(3), o);
  EXPECT_FALSE(r.feasible);
}

constexpr MfsLiapunov::Mode kBothModes[] = {
    MfsLiapunov::Mode::TimeConstrained, MfsLiapunov::Mode::ResourceConstrained};

MfsOptions optionsFor(MfsLiapunov::Mode mode) {
  MfsOptions o;
  o.mode = mode;
  if (mode == MfsLiapunov::Mode::TimeConstrained) o.constraints.timeSteps = 6;
  return o;
}

TEST(Mfs, UnschedulableChainedOpIsRejectedUpFront) {
  // Under chaining at a 50 ns clock, diffeq's 160 ns multiplies fit no
  // control step, so neither restarts nor a longer cs can help: the run
  // must fail before evaluating a single cell.
  const dfg::Dfg g = workloads::diffeq();
  dfg::NodeId firstMul = dfg::kNoNode;
  for (dfg::NodeId id : g.operations())
    if (g.kindOf(id) == dfg::OpKind::Mul && firstMul == dfg::kNoNode)
      firstMul = id;
  ASSERT_NE(firstMul, dfg::kNoNode);
  const test::CounterScope counters;
  for (const auto mode : kBothModes) {
    MfsOptions o = optionsFor(mode);
    o.constraints.allowChaining = true;
    o.constraints.clockNs = 50.0;
    const auto before = trace::counterValue(trace::Counter::LiapunovCellEvals);
    const auto r = runMfs(g, o);
    EXPECT_FALSE(r.feasible);
    EXPECT_EQ(r.restarts, 0);
    EXPECT_NE(r.error.find("'" + g.node(firstMul).name + "'"), std::string::npos)
        << r.error;
    EXPECT_NE(r.error.find("160 ns"), std::string::npos) << r.error;
    EXPECT_NE(r.error.find("50 ns clock"), std::string::npos) << r.error;
    EXPECT_EQ(trace::counterValue(trace::Counter::LiapunovCellEvals), before);
  }
}

TEST(Mfs, UnschedulableZeroBudgetIsRejectedUpFront) {
  const dfg::Dfg g = workloads::diffeq();
  const test::CounterScope counters;
  for (const auto mode : kBothModes) {
    for (const int limit : {0, -1}) {
      MfsOptions o = optionsFor(mode);
      o.constraints.fuLimit[FuType::Multiplier] = limit;
      const auto before =
          trace::counterValue(trace::Counter::LiapunovCellEvals);
      const auto r = runMfs(g, o);
      EXPECT_FALSE(r.feasible);
      EXPECT_EQ(r.restarts, 0);
      EXPECT_NE(r.error.find("multiplier budget " + std::to_string(limit)),
                std::string::npos)
          << r.error;
      EXPECT_EQ(trace::counterValue(trace::Counter::LiapunovCellEvals), before);
    }
    // A zero budget for a type the graph does not use stays legal.
    MfsOptions o = optionsFor(mode);
    o.constraints.fuLimit[FuType::Divider] = 0;
    const auto r = runMfs(g, o);
    ASSERT_TRUE(r.feasible) << r.error;
    EXPECT_TRUE(analysis::lintSchedule(r.schedule, o.constraints).empty());
  }
}

TEST(Mfs, ResourceModeMinimizesStepsUnderLimits) {
  // 6 independent adds with 2 adders: exactly 3 steps.
  MfsOptions o;
  o.mode = MfsLiapunov::Mode::ResourceConstrained;
  o.constraints.fuLimit[FuType::Adder] = 2;
  const auto r = runMfs(test::addParallel(6), o);
  ASSERT_TRUE(r.feasible) << r.error;
  EXPECT_EQ(r.steps, 3);
  EXPECT_TRUE(analysis::lintSchedule(r.schedule, o.constraints).empty());
}

TEST(Mfs, ResourceModeReachesCriticalPathWithAmpleUnits) {
  MfsOptions o;
  o.mode = MfsLiapunov::Mode::ResourceConstrained;
  o.constraints.fuLimit[FuType::Multiplier] = 2;
  o.constraints.fuLimit[FuType::Adder] = 1;
  o.constraints.fuLimit[FuType::Subtractor] = 1;
  o.constraints.fuLimit[FuType::Comparator] = 1;
  const auto r = runMfs(workloads::diffeq(), o);
  ASSERT_TRUE(r.feasible) << r.error;
  EXPECT_EQ(r.steps, 4);  // 2 multipliers suffice for the 4-step schedule
}

TEST(Mfs, ResourceModeStretchesWhenUnitsScarce) {
  MfsOptions o;
  o.mode = MfsLiapunov::Mode::ResourceConstrained;
  o.constraints.fuLimit[FuType::Multiplier] = 1;
  o.constraints.fuLimit[FuType::Adder] = 1;
  o.constraints.fuLimit[FuType::Subtractor] = 1;
  o.constraints.fuLimit[FuType::Comparator] = 1;
  const auto r = runMfs(workloads::diffeq(), o);
  ASSERT_TRUE(r.feasible) << r.error;
  EXPECT_GE(r.steps, 6);  // six multiplications serialized on one unit
  EXPECT_TRUE(analysis::lintSchedule(r.schedule, o.constraints).empty());
}

TEST(Mfs, LiapunovTraceIsMonotoneDecreasing) {
  const auto r = timeRun(workloads::diffeq(), 5);
  ASSERT_TRUE(r.feasible);
  ASSERT_GE(r.liapunovTrace.size(), 2u);
  for (std::size_t i = 1; i < r.liapunovTrace.size(); ++i)
    EXPECT_LE(r.liapunovTrace[i], r.liapunovTrace[i - 1]);
  EXPECT_LT(r.liapunovTrace.back(), r.liapunovTrace.front());
}

TEST(Mfs, BalancedScheduleMatchesCeilBound) {
  // n independent same-type ops in cs steps can always reach ceil(n/cs).
  for (int n : {4, 6, 9}) {
    for (int cs : {2, 3}) {
      const auto r = timeRun(test::addParallel(n), cs);
      ASSERT_TRUE(r.feasible);
      EXPECT_EQ(fu(r, FuType::Adder), (n + cs - 1) / cs) << n << "/" << cs;
    }
  }
}

TEST(Mfs, InvalidGraphRejected) {
  dfg::Dfg g("bad");
  dfg::Node n;
  n.kind = dfg::OpKind::Add;
  n.name = "a";
  g.addNode(n);  // missing inputs
  MfsOptions o;
  o.constraints.timeSteps = 2;
  const auto r = runMfs(g, o);
  EXPECT_FALSE(r.feasible);
  EXPECT_NE(r.error.find("invalid DFG"), std::string::npos);
}

TEST(Mfs, TopoOrderRejectsIncompletePriorityList) {
  // A priority list whose op waits on a predecessor missing from the list
  // can never make progress. This used to be a release-mode-silent
  // assert(progress); now it surfaces a structured error naming the op.
  const dfg::Dfg g = test::addChain(2);  // c1 -> c2
  std::string err;
  const auto order = topoConsistentOrder(g, {g.findByName("c2")}, &err);
  EXPECT_FALSE(order.has_value());
  EXPECT_NE(err.find("c2"), std::string::npos) << err;
  EXPECT_NE(err.find("inconsistent priority order"), std::string::npos) << err;
}

TEST(Mfs, TopoOrderAcceptsAnyCompletePermutation) {
  // Sanity for the happy path of the same routine: a reversed-but-complete
  // list is repaired into a valid topological order.
  const dfg::Dfg g = test::addChain(3);
  const std::vector<dfg::NodeId> rev = {
      g.findByName("c3"), g.findByName("c2"), g.findByName("c1")};
  std::string err;
  const auto order = topoConsistentOrder(g, rev, &err);
  ASSERT_TRUE(order.has_value()) << err;
  ASSERT_EQ(order->size(), 3u);
  EXPECT_EQ((*order)[0], g.findByName("c1"));
  EXPECT_EQ((*order)[1], g.findByName("c2"));
  EXPECT_EQ((*order)[2], g.findByName("c3"));
}

TEST(Mfs, PriorityAblationStillProducesValidSchedules) {
  for (auto rule : {sched::PriorityRule::Mobility,
                    sched::PriorityRule::MobilityNoReverse,
                    sched::PriorityRule::InsertionOrder}) {
    MfsOptions o;
    o.constraints.timeSteps = 17;
    o.priorityRule = rule;
    const auto r = runMfs(workloads::ewfLike(), o);
    ASSERT_TRUE(r.feasible) << r.error;
    EXPECT_TRUE(analysis::lintSchedule(r.schedule, o.constraints).empty());
  }
}

}  // namespace
}  // namespace mframe::core
