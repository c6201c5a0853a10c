#include <gtest/gtest.h>

#include "analysis/sched_rules.h"
#include "baseline/fds.h"
#include "baseline/list_sched.h"
#include "core/mfs.h"
#include "helpers.h"
#include "workloads/benchmarks.h"

namespace mframe::baseline {
namespace {

using dfg::FuType;

TEST(ListSched, RespectsResourceLimits) {
  sched::Constraints c;
  c.fuLimit[FuType::Adder] = 2;
  const auto r = runListScheduling(test::addParallel(6), c);
  ASSERT_TRUE(r.feasible) << r.error;
  EXPECT_EQ(r.steps, 3);
  c.timeSteps = r.steps;
  EXPECT_TRUE(analysis::lintSchedule(r.schedule, c).empty());
}

TEST(ListSched, SerializesOnOneUnit) {
  sched::Constraints c;
  c.fuLimit[FuType::Adder] = 1;
  const auto r = runListScheduling(test::addParallel(5), c);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.steps, 5);
}

TEST(ListSched, ChainReachesCriticalPath) {
  sched::Constraints c;
  c.fuLimit[FuType::Adder] = 1;
  const auto r = runListScheduling(test::addChain(4), c);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.steps, 4);
}

TEST(ListSched, DiffeqWithTwoMultipliersMatchesMfs) {
  sched::Constraints c;
  c.fuLimit[FuType::Multiplier] = 2;
  c.fuLimit[FuType::Adder] = 1;
  c.fuLimit[FuType::Subtractor] = 1;
  c.fuLimit[FuType::Comparator] = 1;
  const auto r = runListScheduling(workloads::diffeq(), c);
  ASSERT_TRUE(r.feasible) << r.error;
  EXPECT_EQ(r.steps, 4);  // same latency MFS achieves
  c.timeSteps = r.steps;
  EXPECT_TRUE(analysis::lintSchedule(r.schedule, c).empty());
}

TEST(ListSched, HandlesMulticycle) {
  sched::Constraints c;
  c.fuLimit[FuType::Multiplier] = 2;
  c.fuLimit[FuType::Adder] = 2;
  const auto r = runListScheduling(workloads::arLattice(), c);
  ASSERT_TRUE(r.feasible) << r.error;
  c.timeSteps = r.steps;
  EXPECT_TRUE(analysis::lintSchedule(r.schedule, c).empty());
}

TEST(ListSched, RejectsOpLongerThanLatency) {
  const auto r =
      runListScheduling(test::multicycleChain(), test::latencyOne());
  EXPECT_FALSE(r.feasible);
  EXPECT_TRUE(test::namesSelfOverlap(r.error)) << r.error;
}

TEST(ListSched, PipelinedMultiplierOverlapsStages) {
  // m1 and m2 are independent two-cycle products: one pipelined multiplier
  // starts them in steps 1 and 2, one unpipelined multiplier in 1 and 3.
  dfg::Builder b("pm");
  const auto x = b.input("x");
  const auto y = b.input("y");
  const auto m1 = b.mul(x, y, "m1", 2);
  const auto m2 = b.mul(y, x, "m2", 2);
  b.output(b.add(m1, m2, "s1"), "o");
  const dfg::Dfg g = std::move(b).build();
  sched::Constraints c;
  c.fuLimit[FuType::Multiplier] = 1;
  EXPECT_EQ(runListScheduling(g, c).steps, 5);
  c.pipelinedFus.insert(FuType::Multiplier);
  const auto r = runListScheduling(g, c);
  ASSERT_TRUE(r.feasible) << r.error;
  EXPECT_EQ(r.steps, 4);
  c.timeSteps = r.steps;
  EXPECT_TRUE(analysis::lintSchedule(r.schedule, c).empty());
}

TEST(Fds, RejectsOpLongerThanLatency) {
  sched::Constraints c = test::latencyOne();
  const auto r = runForceDirected(test::multicycleChain(), c);
  EXPECT_FALSE(r.feasible);
  EXPECT_TRUE(test::namesSelfOverlap(r.error)) << r.error;

  c.pipelinedFus.insert(FuType::Multiplier);
  const auto p = runForceDirected(test::multicycleChain(), c);
  ASSERT_TRUE(p.feasible) << p.error;
  EXPECT_TRUE(analysis::lintSchedule(p.schedule, c).empty());
}

TEST(Fds, DiffeqAtFourStepsUsesTwoMultipliers) {
  sched::Constraints c;
  c.timeSteps = 4;
  const auto r = runForceDirected(workloads::diffeq(), c);
  ASSERT_TRUE(r.feasible) << r.error;
  EXPECT_TRUE(analysis::lintSchedule(r.schedule, c).empty());
  EXPECT_EQ(r.schedule.fuCount().at(FuType::Multiplier), 2);
}

TEST(Fds, RejectsInfeasibleConstraint) {
  sched::Constraints c;
  c.timeSteps = 2;
  const auto r = runForceDirected(test::addChain(4), c);
  EXPECT_FALSE(r.feasible);
}

TEST(Fds, BalancesIndependentOps) {
  sched::Constraints c;
  c.timeSteps = 3;
  const auto r = runForceDirected(test::addParallel(6), c);
  ASSERT_TRUE(r.feasible) << r.error;
  EXPECT_TRUE(analysis::lintSchedule(r.schedule, c).empty());
  EXPECT_EQ(r.schedule.fuCount().at(FuType::Adder), 2);
}

TEST(Fds, ValidOnTheWholeSuiteWithoutSpecialFeatures) {
  for (const auto& bc : workloads::paperSuite()) {
    if (bc.constraints.allowChaining) continue;  // FDS baseline: no chaining
    sched::Constraints c;
    c.timeSteps = bc.timeSweep.back();
    const auto r = runForceDirected(bc.graph, c);
    ASSERT_TRUE(r.feasible) << bc.id << ": " << r.error;
    EXPECT_TRUE(analysis::lintSchedule(r.schedule, c).empty()) << bc.id;
  }
}

TEST(Fds, MfsMatchesOrBeatsFdsOnPeakMultipliers) {
  // The paper's pitch is MFS reaches FDS-quality schedules much faster; on
  // diffeq both should land on the classic 2-multiplier solution.
  sched::Constraints c;
  c.timeSteps = 4;
  const auto fds = runForceDirected(workloads::diffeq(), c);
  core::MfsOptions mo;
  mo.constraints.timeSteps = 4;
  const auto mfs = core::runMfs(workloads::diffeq(), mo);
  ASSERT_TRUE(fds.feasible && mfs.feasible);
  EXPECT_LE(mfs.fuCount.at(FuType::Multiplier),
            fds.schedule.fuCount().at(FuType::Multiplier));
}

}  // namespace
}  // namespace mframe::baseline
