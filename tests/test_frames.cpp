#include "core/frames.h"

#include <gtest/gtest.h>

#include "dfg/builder.h"
#include "helpers.h"
#include "sched/timeframes.h"

namespace mframe::core {
namespace {

using dfg::NodeId;

struct Fixture {
  dfg::Dfg g = test::smallDiamond();
  sched::Constraints c;
  std::optional<sched::TimeFrames> tf;
  Fixture(int cs = 4) {
    c.timeSteps = cs;
    tf = computeTimeFrames(g, c);
  }
};

TEST(Frames, PrimaryFrameIsAsapAlapTimesMaxCols) {
  Fixture fx;
  FrameCalculator fc(fx.g, fx.c, *fx.tf);
  sched::Schedule s(fx.g);
  ColumnOccupancy occ(fx.g, fx.c);
  const NodeId y = fx.g.findByName("y");
  const auto f = fc.compute(s, occ, y, /*currentCols=*/2, /*maxCols=*/3);
  EXPECT_EQ(f.pfStepLo, fx.tf->asap(y));
  EXPECT_EQ(f.pfStepHi, fx.tf->alap(y));
  EXPECT_EQ(f.pfColLo, 1);
  EXPECT_EQ(f.pfColHi, 3);
  EXPECT_EQ(f.rfColLo, 3);  // columns >= current+1 are redundant
}

TEST(Frames, MoveFrameExcludesRedundantColumns) {
  Fixture fx;
  FrameCalculator fc(fx.g, fx.c, *fx.tf);
  sched::Schedule s(fx.g);
  ColumnOccupancy occ(fx.g, fx.c);
  const NodeId sum = fx.g.findByName("s");
  const auto f = fc.compute(s, occ, sum, /*currentCols=*/1, /*maxCols=*/4);
  for (const auto& cell : f.moveFrame) EXPECT_EQ(cell.column, 1);
  EXPECT_FALSE(f.moveFrame.empty());
}

TEST(Frames, ForbiddenFrameBlocksPredecessorSteps) {
  Fixture fx;
  FrameCalculator fc(fx.g, fx.c, *fx.tf);
  sched::Schedule s(fx.g);
  ColumnOccupancy occ(fx.g, fx.c);
  const NodeId sum = fx.g.findByName("s");
  const NodeId diff = fx.g.findByName("t");
  const NodeId y = fx.g.findByName("y");
  // Place the predecessors late: steps 1 and 2.
  s.place(sum, 2, 1);
  fc.recordPlacement(s, sum, 2);
  s.place(diff, 1, 1);
  fc.recordPlacement(s, diff, 1);
  const auto f = fc.compute(s, occ, y, 2, 2);
  EXPECT_EQ(f.ffBelowStep, 3);  // steps <= 2 are forbidden
  for (const auto& cell : f.moveFrame) EXPECT_GE(cell.step, 3);
  EXPECT_FALSE(f.moveFrame.empty());
}

TEST(Frames, MoveFrameExcludesOccupiedCells) {
  const dfg::Dfg g = test::addParallel(2);
  sched::Constraints c;
  c.timeSteps = 1;
  const auto tf = *computeTimeFrames(g, c);
  FrameCalculator fc(g, c, tf);
  sched::Schedule s(g);
  ColumnOccupancy occ(g, c);
  const auto ops = g.operations();
  occ.place(ops[0], 1, 1);
  s.place(ops[0], 1, 1);
  const auto f = fc.compute(s, occ, ops[1], 2, 2);
  ASSERT_EQ(f.moveFrame.size(), 1u);
  EXPECT_EQ(f.moveFrame[0].column, 2);
}

TEST(Frames, DepOkRejectsBusyPredecessor) {
  dfg::Builder b("mc");
  const auto x = b.input("x");
  const auto y = b.input("y");
  const auto m = b.mul(x, y, "m", 2);
  const auto a = b.add(m, x, "a");
  b.output(a, "o");
  const dfg::Dfg g = std::move(b).build();
  sched::Constraints c;
  c.timeSteps = 4;
  const auto tf = *computeTimeFrames(g, c);
  FrameCalculator fc(g, c, tf);
  sched::Schedule s(g);
  s.place(g.findByName("m"), 1, 1);  // busy through step 2
  fc.recordPlacement(s, g.findByName("m"), 1);
  EXPECT_FALSE(fc.depOk(s, g.findByName("a"), 2).ok);
  EXPECT_TRUE(fc.depOk(s, g.findByName("a"), 3).ok);
}

TEST(Frames, ChainingRelaxesTheForbiddenFrame) {
  const dfg::Dfg g = test::addChain(2);
  sched::Constraints c;
  c.timeSteps = 2;
  c.allowChaining = true;
  c.clockNs = 100.0;
  const auto tf = *computeTimeFrames(g, c);
  FrameCalculator fc(g, c, tf);
  sched::Schedule s(g);
  const NodeId c1 = g.findByName("c1");
  const NodeId c2 = g.findByName("c2");
  s.place(c1, 1, 1);
  fc.recordPlacement(s, c1, 1);
  const auto d = fc.depOk(s, c2, 1);  // same step, 40+40 <= 100
  EXPECT_TRUE(d.ok);
  EXPECT_DOUBLE_EQ(d.startOffsetNs, 40.0);
}

TEST(Frames, ChainingBudgetExhaustionForbids) {
  const dfg::Dfg g = test::addChain(3);
  sched::Constraints c;
  c.timeSteps = 3;
  c.allowChaining = true;
  c.clockNs = 100.0;
  const auto tf = *computeTimeFrames(g, c);
  FrameCalculator fc(g, c, tf);
  sched::Schedule s(g);
  s.place(g.findByName("c1"), 1, 1);
  fc.recordPlacement(s, g.findByName("c1"), 1);
  s.place(g.findByName("c2"), 1, 2);
  fc.recordPlacement(s, g.findByName("c2"), 1);
  // c3 at step 1 would need 120ns.
  EXPECT_FALSE(fc.depOk(s, g.findByName("c3"), 1).ok);
  EXPECT_TRUE(fc.depOk(s, g.findByName("c3"), 2).ok);
}

TEST(Frames, ChainOffsetsAccumulateAlongThePlacementOrder) {
  const dfg::Dfg g = test::addChain(2);
  sched::Constraints c;
  c.timeSteps = 1;
  c.allowChaining = true;
  c.clockNs = 100.0;
  const auto tf = *computeTimeFrames(g, c);
  FrameCalculator fc(g, c, tf);
  sched::Schedule s(g);
  s.place(g.findByName("c1"), 1, 1);
  fc.recordPlacement(s, g.findByName("c1"), 1);
  s.place(g.findByName("c2"), 1, 2);
  fc.recordPlacement(s, g.findByName("c2"), 1);
  EXPECT_DOUBLE_EQ(fc.chainOffsetOf(g.findByName("c1")), 40.0);
  EXPECT_DOUBLE_EQ(fc.chainOffsetOf(g.findByName("c2")), 80.0);
}

TEST(Frames, ResetClearsChainState) {
  const dfg::Dfg g = test::addChain(1);
  sched::Constraints c;
  c.timeSteps = 1;
  c.allowChaining = true;
  const auto tf = *computeTimeFrames(g, c);
  FrameCalculator fc(g, c, tf);
  sched::Schedule s(g);
  s.place(g.findByName("c1"), 1, 1);
  fc.recordPlacement(s, g.findByName("c1"), 1);
  fc.reset();
  EXPECT_DOUBLE_EQ(fc.chainOffsetOf(g.findByName("c1")), 0.0);
}

TEST(Frames, FitsNoStepWhenTheOpOutlastsTheChainedClock) {
  const dfg::Dfg g = test::smallDiamond();  // y = s * t: a 160 ns multiply
  sched::Constraints c;
  c.allowChaining = true;
  c.clockNs = 50.0;
  const NodeId y = g.findByName("y");
  EXPECT_TRUE(fitsNoStep(g, c, y));
  EXPECT_FALSE(fitsNoStep(g, c, g.findByName("s")));  // a 40 ns add fits

  // depOk and the dependency window apply the same rule step by step.
  const auto tf = *computeTimeFrames(g, c);
  FrameCalculator fc(g, c, tf);
  sched::Schedule s(g);
  for (int step = 1; step <= tf.criticalSteps(); ++step)
    EXPECT_FALSE(fc.depOk(s, y, step).ok) << step;
  EXPECT_FALSE(fc.depWindow(s, y).aboveOk);

  // Without chaining an op simply takes whole steps.
  c.allowChaining = false;
  EXPECT_FALSE(fitsNoStep(g, c, y));
}

TEST(Frames, UnschedulableReasonNamesTheBlocker) {
  const dfg::Dfg g = test::smallDiamond();
  sched::Constraints c;
  EXPECT_FALSE(unschedulableReason(g, c, {}).has_value());

  c.fuLimit[dfg::FuType::Divider] = 0;  // a type the graph does not use
  EXPECT_FALSE(unschedulableReason(g, c, {}).has_value());

  c.fuLimit[dfg::FuType::Multiplier] = 0;
  auto why = unschedulableReason(g, c, {});
  ASSERT_TRUE(why.has_value());
  EXPECT_NE(why->find("multiplier budget 0"), std::string::npos) << *why;

  c.fuLimit[dfg::FuType::Multiplier] = 1;
  c.allowChaining = true;
  c.clockNs = 50.0;
  why = unschedulableReason(g, c, {});
  ASSERT_TRUE(why.has_value());
  EXPECT_NE(why->find("'y'"), std::string::npos) << *why;
  EXPECT_NE(why->find("160 ns"), std::string::npos) << *why;
  EXPECT_NE(why->find("50 ns clock"), std::string::npos) << *why;

  // Two-cycle multiplies restarted every step: only a pipelined multiplier
  // can run them, and the caller says which types it runs pipelined.
  const dfg::Dfg mc = test::multicycleChain();
  why = unschedulableReason(mc, test::latencyOne(), {});
  ASSERT_TRUE(why.has_value());
  EXPECT_TRUE(test::namesSelfOverlap(*why)) << *why;
  EXPECT_FALSE(unschedulableReason(mc, test::latencyOne(),
                                   {dfg::FuType::Multiplier})
                   .has_value());
}

// ---------------------------------------------------------------------------
// ColumnBudget: MFS steps 2-3, shared by MFSA

TEST(ColumnBudget, WidenOpensCurrentBelowMax) {
  for (const bool userLimited : {false, true}) {
    ColumnBudget b{.max = 3, .current = 1, .userLimited = userLimited};
    EXPECT_TRUE(b.widen());
    EXPECT_EQ(b.current, 2);
    EXPECT_EQ(b.max, 3);
  }
}

TEST(ColumnBudget, WidenGrowsMaxWithoutAUserLimit) {
  ColumnBudget b{.max = 2, .current = 2, .userLimited = false};
  EXPECT_TRUE(b.widen());
  EXPECT_EQ(b.max, 3);
  EXPECT_EQ(b.current, 3);
}

TEST(ColumnBudget, WidenChangesNothingAtTheUserLimit) {
  ColumnBudget b{.max = 2, .current = 2, .userLimited = true};
  EXPECT_FALSE(b.widen());
  EXPECT_EQ(b.max, 2);
  EXPECT_EQ(b.current, 2);
}

TEST(ColumnBudget, BalancedBudgetsStartAtTheEvenShare) {
  // Nine independent additions in two steps: ASAP and ALAP both stack all
  // nine in one step, so max_j = 9 and the even share is ceil(9/2) = 5.
  const dfg::Dfg g = test::addParallel(9);
  sched::Constraints c;
  c.timeSteps = 2;
  const auto tf = sched::computeTimeFrames(g, c);
  ASSERT_TRUE(tf.has_value());
  const auto adder = static_cast<std::size_t>(dfg::FuType::Adder);
  const auto mult = static_cast<std::size_t>(dfg::FuType::Multiplier);

  auto budgets = columnBudgets(g, c, *tf, 2, /*balanced=*/true);
  ASSERT_EQ(budgets.size(), dfg::kNumFuTypes);
  EXPECT_EQ(budgets[adder].max, 9);
  EXPECT_EQ(budgets[adder].current, 5);
  EXPECT_FALSE(budgets[adder].userLimited);
  // An unused type gets max_j = 1, and its share 0 is raised to 1.
  EXPECT_EQ(budgets[mult].max, 1);
  EXPECT_EQ(budgets[mult].current, 1);

  // The share is clamped to max_j: the user's limit of 3 caps it.
  c.fuLimit[dfg::FuType::Adder] = 3;
  budgets = columnBudgets(g, c, *tf, 2, /*balanced=*/true);
  EXPECT_EQ(budgets[adder].max, 3);
  EXPECT_EQ(budgets[adder].current, 3);
  EXPECT_TRUE(budgets[adder].userLimited);
}

TEST(ColumnBudget, UnbalancedBudgetsStartAtMax) {
  const dfg::Dfg g = test::addParallel(9);
  sched::Constraints c;
  c.timeSteps = 2;
  c.fuLimit[dfg::FuType::Subtractor] = 4;
  const auto tf = sched::computeTimeFrames(g, c);
  ASSERT_TRUE(tf.has_value());
  const auto budgets = columnBudgets(g, c, *tf, 2, /*balanced=*/false);
  for (const ColumnBudget& b : budgets) EXPECT_EQ(b.current, b.max);
  EXPECT_EQ(budgets[static_cast<std::size_t>(dfg::FuType::Adder)].max, 9);
  EXPECT_EQ(budgets[static_cast<std::size_t>(dfg::FuType::Subtractor)].max,
            4);
}

TEST(ColumnBudget, ZeroUserLimitGivesAZeroBudget) {
  const dfg::Dfg g = test::smallDiamond();
  sched::Constraints c;
  c.timeSteps = 4;
  c.fuLimit[dfg::FuType::Divider] = 0;
  const auto tf = sched::computeTimeFrames(g, c);
  ASSERT_TRUE(tf.has_value());
  for (const bool balanced : {true, false}) {
    auto budgets = columnBudgets(g, c, *tf, 4, balanced);
    ColumnBudget& div = budgets[static_cast<std::size_t>(dfg::FuType::Divider)];
    EXPECT_EQ(div.max, 0);
    EXPECT_EQ(div.current, 0);
    EXPECT_FALSE(div.widen());
    EXPECT_EQ(div.max, 0);
    EXPECT_EQ(div.current, 0);
  }
}

}  // namespace
}  // namespace mframe::core
