#include "analysis/sched_rules.h"

#include <gtest/gtest.h>

#include "dfg/builder.h"
#include "helpers.h"

namespace mframe::sched {
namespace {

using dfg::NodeId;

Schedule validDiamond(const dfg::Dfg& g) {
  Schedule s(g);
  s.setNumSteps(3);
  s.place(g.findByName("s"), 1, 1);
  s.place(g.findByName("t"), 1, 1);  // different type: subtractor column 1
  s.place(g.findByName("y"), 2, 1);
  s.place(g.findByName("f"), 3, 1);
  return s;
}

TEST(VerifySchedule, AcceptsValid) {
  const dfg::Dfg g = test::smallDiamond();
  Constraints c;
  c.timeSteps = 3;
  EXPECT_TRUE(analysis::lintSchedule(validDiamond(g), c).empty());
}

TEST(VerifySchedule, FlagsUnscheduledOp) {
  const dfg::Dfg g = test::smallDiamond();
  Schedule s(g);
  s.setNumSteps(3);
  Constraints c;
  const auto v = analysis::lintSchedule(s, c).messages();
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v.front().find("not scheduled"), std::string::npos);
}

TEST(VerifySchedule, FlagsRangeOverflow) {
  const dfg::Dfg g = test::smallDiamond();
  Schedule s = validDiamond(g);
  s.setNumSteps(2);  // f now sits at step 3 > cs
  Constraints c;
  const auto v = analysis::lintSchedule(s, c).messages();
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v.front().find("outside"), std::string::npos);
}

TEST(VerifySchedule, FlagsPrecedenceViolation) {
  const dfg::Dfg g = test::smallDiamond();
  Schedule s = validDiamond(g);
  s.place(g.findByName("y"), 1, 1);  // same step as its producer 's'
  Constraints c;
  c.timeSteps = 3;
  const auto v = analysis::lintSchedule(s, c).messages();
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v.front().find("precedence"), std::string::npos);
}

TEST(VerifySchedule, FlagsOccupancyConflict) {
  const dfg::Dfg g = test::addParallel(2);
  Schedule s(g);
  s.setNumSteps(1);
  const auto ops = g.operations();
  s.place(ops[0], 1, 1);
  s.place(ops[1], 1, 1);  // same adder, same step
  Constraints c;
  c.timeSteps = 1;
  const auto v = analysis::lintSchedule(s, c).messages();
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v.front().find("occupancy"), std::string::npos);
}

TEST(VerifySchedule, MutuallyExclusiveOpsMayShareACell) {
  const dfg::Dfg g = test::branchy();
  Schedule s(g);
  s.setNumSteps(2);
  s.place(g.findByName("t1"), 1, 1);
  s.place(g.findByName("e1"), 1, 1);  // same cell, exclusive arms: legal
  s.place(g.findByName("j"), 2, 1);
  Constraints c;
  c.timeSteps = 2;
  EXPECT_TRUE(analysis::lintSchedule(s, c).empty());
}

TEST(VerifySchedule, FlagsResourceLimitBreach) {
  const dfg::Dfg g = test::addParallel(2);
  Schedule s(g);
  s.setNumSteps(1);
  const auto ops = g.operations();
  s.place(ops[0], 1, 1);
  s.place(ops[1], 1, 2);
  Constraints c;
  c.timeSteps = 1;
  c.fuLimit[dfg::FuType::Adder] = 1;
  const auto v = analysis::lintSchedule(s, c).messages();
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v.front().find("resource limit"), std::string::npos);
}

TEST(VerifySchedule, MulticycleOverlapDetected) {
  dfg::Builder b("mc");
  const auto x = b.input("x");
  const auto y = b.input("y");
  b.mul(x, y, "m1", 2);
  b.mul(x, y, "m2", 2);
  const dfg::Dfg g = std::move(b).build();
  Schedule s(g);
  s.setNumSteps(3);
  s.place(g.findByName("m1"), 1, 1);  // occupies 1-2
  s.place(g.findByName("m2"), 2, 1);  // occupies 2-3: clash in step 2
  Constraints c;
  c.timeSteps = 3;
  EXPECT_FALSE(analysis::lintSchedule(s, c).empty());
}

TEST(VerifySchedule, PipelinedUnitAllowsOverlapButNotSameStart) {
  dfg::Builder b("pipe");
  const auto x = b.input("x");
  const auto y = b.input("y");
  b.mul(x, y, "m1", 2);
  b.mul(x, y, "m2", 2);
  const dfg::Dfg g = std::move(b).build();
  Constraints c;
  c.timeSteps = 3;
  c.pipelinedFus.insert(dfg::FuType::Multiplier);

  Schedule ok(g);
  ok.setNumSteps(3);
  ok.place(g.findByName("m1"), 1, 1);
  ok.place(g.findByName("m2"), 2, 1);  // overlapped stages: fine
  EXPECT_TRUE(analysis::lintSchedule(ok, c).empty());

  Schedule bad(g);
  bad.setNumSteps(3);
  bad.place(g.findByName("m1"), 1, 1);
  bad.place(g.findByName("m2"), 1, 1);  // two initiations in one step
  EXPECT_FALSE(analysis::lintSchedule(bad, c).empty());
}

TEST(VerifySchedule, LatencyFoldingDetectsModuloConflicts) {
  const dfg::Dfg g = test::addParallel(2);
  Constraints c;
  c.timeSteps = 4;
  c.latency = 2;
  Schedule s(g);
  s.setNumSteps(4);
  const auto ops = g.operations();
  s.place(ops[0], 1, 1);
  s.place(ops[1], 3, 1);  // 3 == 1 (mod 2): conflicts under folding
  EXPECT_FALSE(analysis::lintSchedule(s, c).empty());

  Schedule ok(g);
  ok.setNumSteps(4);
  ok.place(ops[0], 1, 1);
  ok.place(ops[1], 2, 1);
  EXPECT_TRUE(analysis::lintSchedule(ok, c).empty());
}

TEST(VerifySchedule, ChainingLegalWithinClock) {
  const dfg::Dfg g = test::addChain(2);
  Constraints c;
  c.timeSteps = 1;
  c.allowChaining = true;
  c.clockNs = 100.0;
  Schedule s(g);
  s.setNumSteps(1);
  s.place(g.findByName("c1"), 1, 1);
  s.place(g.findByName("c2"), 1, 2);
  EXPECT_TRUE(analysis::lintSchedule(s, c).empty());
}

TEST(VerifySchedule, ChainingOverflowFlagged) {
  const dfg::Dfg g = test::addChain(3);  // 3*40 = 120ns > 100ns
  Constraints c;
  c.timeSteps = 1;
  c.allowChaining = true;
  c.clockNs = 100.0;
  Schedule s(g);
  s.setNumSteps(1);
  s.place(g.findByName("c1"), 1, 1);
  s.place(g.findByName("c2"), 1, 2);
  s.place(g.findByName("c3"), 1, 3);
  const auto v = analysis::lintSchedule(s, c).messages();
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v.front().find("chaining"), std::string::npos);
}

TEST(VerifySchedule, SameStepDependentsIllegalWithoutChaining) {
  const dfg::Dfg g = test::addChain(2);
  Constraints c;
  c.timeSteps = 1;
  Schedule s(g);
  s.setNumSteps(1);
  s.place(g.findByName("c1"), 1, 1);
  s.place(g.findByName("c2"), 1, 2);
  EXPECT_FALSE(analysis::lintSchedule(s, c).empty());
}

}  // namespace
}  // namespace mframe::sched
