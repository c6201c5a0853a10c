// Tests for the ASAP baseline, slack analysis and the clock explorer.
#include <gtest/gtest.h>

#include "analysis/sched_rules.h"
#include "baseline/asap_sched.h"
#include "core/mfs.h"
#include "helpers.h"
#include "sched/clock_explorer.h"
#include "sched/slack.h"
#include "workloads/benchmarks.h"

namespace mframe {
namespace {

using dfg::FuType;

TEST(Asap, SchedulesEveryOpAtItsAsapStep) {
  const auto r = baseline::runAsap(workloads::diffeq(), {});
  ASSERT_TRUE(r.feasible) << r.error;
  sched::Constraints c;
  c.timeSteps = r.steps;
  EXPECT_TRUE(analysis::lintSchedule(r.schedule, c).empty());
  EXPECT_EQ(r.steps, 4);
  // ASAP piles all initial multiplications into step 1.
  EXPECT_GE(r.schedule.fuCount().at(FuType::Multiplier), 3);
}

TEST(Asap, RejectsOpLongerThanLatency) {
  sched::Constraints c = test::latencyOne();
  const auto r = baseline::runAsap(test::multicycleChain(), c);
  EXPECT_FALSE(r.feasible);
  EXPECT_TRUE(test::namesSelfOverlap(r.error)) << r.error;

  c.pipelinedFus.insert(FuType::Multiplier);
  const auto p = baseline::runAsap(test::multicycleChain(), c);
  ASSERT_TRUE(p.feasible) << p.error;
  c.timeSteps = p.steps;
  EXPECT_TRUE(analysis::lintSchedule(p.schedule, c).empty());
}

TEST(Asap, PipelinedMultiplierSharesAColumn) {
  // m2 starts in m1's second cycle: one pipelined multiplier holds both.
  dfg::Builder b("overlap");
  const auto x = b.input("x");
  const auto y = b.input("y");
  const auto m1 = b.mul(x, y, "m1", 2);
  const auto m2 = b.mul(b.add(x, y, "s"), y, "m2", 2);
  b.output(b.add(m1, m2, "t"), "o");
  const dfg::Dfg g = std::move(b).build();
  sched::Constraints c;
  EXPECT_EQ(baseline::runAsap(g, c).schedule.fuCount().at(FuType::Multiplier), 2);
  c.pipelinedFus.insert(FuType::Multiplier);
  const auto r = baseline::runAsap(g, c);
  ASSERT_TRUE(r.feasible) << r.error;
  EXPECT_EQ(r.schedule.fuCount().at(FuType::Multiplier), 1);
  c.timeSteps = r.steps;
  EXPECT_TRUE(analysis::lintSchedule(r.schedule, c).empty());
}

TEST(Asap, MfsBeatsAsapOnBalance) {
  // Same schedule length, strictly fewer (or equal) units of each type —
  // the motivation for balanced scheduling over FACET-style ASAP.
  for (const auto& bc : workloads::paperSuite()) {
    const auto asap = baseline::runAsap(bc.graph, bc.constraints);
    ASSERT_TRUE(asap.feasible) << bc.id;
    core::MfsOptions o;
    o.constraints = bc.constraints;
    o.constraints.timeSteps = asap.steps;
    const auto mfs = core::runMfs(bc.graph, o);
    ASSERT_TRUE(mfs.feasible) << bc.id << ": " << mfs.error;
    const auto asapFu = asap.schedule.fuCount();
    int asapTotal = 0, mfsTotal = 0;
    for (const auto& [t, n] : asapFu) asapTotal += n;
    for (const auto& [t, n] : mfs.fuCount) mfsTotal += n;
    EXPECT_LE(mfsTotal, asapTotal) << bc.id;
  }
}

TEST(Asap, MutualExclusionStillShares) {
  const auto r = baseline::runAsap(test::branchy(), {});
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.schedule.fuCount().at(FuType::Adder), 1);
}

TEST(Slack, TightConstraintMakesEverythingCritical) {
  const dfg::Dfg g = test::addChain(4);
  core::MfsOptions o;
  o.constraints.timeSteps = 4;
  const auto r = core::runMfs(g, o);
  ASSERT_TRUE(r.feasible);
  const auto rep = sched::analyzeSlack(r.schedule, o.constraints);
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->criticalCount, 4);
  EXPECT_DOUBLE_EQ(rep->meanTotalSlack, 0.0);
}

TEST(Slack, RelaxedConstraintCreatesSlack) {
  const dfg::Dfg g = workloads::diffeq();
  core::MfsOptions o;
  o.constraints.timeSteps = 8;
  const auto r = core::runMfs(g, o);
  ASSERT_TRUE(r.feasible);
  const auto rep = sched::analyzeSlack(r.schedule, o.constraints);
  ASSERT_TRUE(rep.has_value());
  EXPECT_GT(rep->meanTotalSlack, 0.0);
  EXPECT_EQ(rep->ops.size(), g.operations().size());
  // Slacks are frame-consistent: early and late slack both non-negative.
  for (const auto& os : rep->ops) {
    EXPECT_GE(os.earlySlack, 0);
    EXPECT_GE(os.lateSlack, 0);
  }
}

TEST(Slack, ReportNamesCriticalOps) {
  const dfg::Dfg g = test::addChain(3);
  core::MfsOptions o;
  o.constraints.timeSteps = 3;
  const auto r = core::runMfs(g, o);
  ASSERT_TRUE(r.feasible);
  const std::string s =
      sched::analyzeSlack(r.schedule, o.constraints)->toString(g);
  EXPECT_NE(s.find("critical: c1"), std::string::npos);
}

TEST(ClockExplorer, LongerClockChainsMoreOps) {
  const dfg::Dfg g = workloads::chained();  // 6-deep chain of 40ns ops
  const auto sweep = sched::sweepClock(g, {40.0, 80.0, 120.0, 240.0});
  ASSERT_EQ(sweep.size(), 4u);
  EXPECT_EQ(sweep[0].steps, 6);  // one op per step
  EXPECT_EQ(sweep[1].steps, 3);  // two per step
  EXPECT_EQ(sweep[2].steps, 2);  // three per step
  EXPECT_EQ(sweep[3].steps, 1);  // the whole chain in one step
  for (const auto& p : sweep) EXPECT_TRUE(p.feasible) << p.clockNs;
}

TEST(ClockExplorer, LatencyTradeoffVisible) {
  const dfg::Dfg g = workloads::chained();
  const auto sweep = sched::sweepClock(g, {40.0, 240.0});
  // Fewer steps does not mean faster wall-clock: 6*40 = 240 == 1*240.
  EXPECT_DOUBLE_EQ(sweep[0].latencyNs, 240.0);
  EXPECT_DOUBLE_EQ(sweep[1].latencyNs, 240.0);
}

TEST(ClockExplorer, TooShortClockIsInfeasible) {
  const dfg::Dfg g = workloads::chained();  // 40ns adds
  const auto sweep = sched::sweepClock(g, {30.0});
  EXPECT_FALSE(sweep[0].feasible);  // no op fits the step at all
}

TEST(ClockExplorer, MinimumClockForStepBudget) {
  const dfg::Dfg g = workloads::chained();
  EXPECT_DOUBLE_EQ(sched::minimumClockFor(g, 3, {40, 80, 120, 240}), 80.0);
  EXPECT_DOUBLE_EQ(sched::minimumClockFor(g, 6, {40, 80, 120, 240}), 40.0);
  EXPECT_DOUBLE_EQ(sched::minimumClockFor(g, 1, {40, 80}), 0.0);  // impossible
}

}  // namespace
}  // namespace mframe
