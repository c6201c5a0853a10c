#include "core/grid.h"

#include <gtest/gtest.h>

#include "dfg/builder.h"
#include "helpers.h"

namespace mframe::core {
namespace {

using dfg::NodeId;

TEST(ColumnOccupancy, PlaceBlocksCell) {
  const dfg::Dfg g = test::addParallel(2);
  sched::Constraints c;
  ColumnOccupancy occ(g, c);
  const auto ops = g.operations();
  EXPECT_TRUE(occ.canPlace(ops[0], 1, 1));
  occ.place(ops[0], 1, 1);
  EXPECT_TRUE(occ.isPlaced(ops[0]));
  EXPECT_FALSE(occ.canPlace(ops[1], 1, 1));
  EXPECT_TRUE(occ.canPlace(ops[1], 2, 1));
  EXPECT_TRUE(occ.canPlace(ops[1], 1, 2));
}

TEST(ColumnOccupancy, MulticycleHoldsConsecutiveSteps) {
  dfg::Builder b("mc");
  const auto x = b.input("x");
  const auto y = b.input("y");
  b.mul(x, y, "m1", 3);
  b.mul(x, y, "m2", 1);
  const dfg::Dfg g = std::move(b).build();
  sched::Constraints c;
  ColumnOccupancy occ(g, c);
  occ.place(g.findByName("m1"), 1, 2);  // occupies 2,3,4
  for (int s : {2, 3, 4}) EXPECT_FALSE(occ.canPlace(g.findByName("m2"), 1, s));
  EXPECT_TRUE(occ.canPlace(g.findByName("m2"), 1, 1));
  EXPECT_TRUE(occ.canPlace(g.findByName("m2"), 1, 5));
}

TEST(ColumnOccupancy, PipelinedColumnConflictsOnlyOnStartStep) {
  dfg::Builder b("pipe");
  const auto x = b.input("x");
  const auto y = b.input("y");
  b.mul(x, y, "m1", 2);
  b.mul(x, y, "m2", 2);
  const dfg::Dfg g = std::move(b).build();
  sched::Constraints c;
  ColumnOccupancy occ(g, c);
  occ.setPipelined(1, true);
  occ.place(g.findByName("m1"), 1, 1);
  EXPECT_FALSE(occ.canPlace(g.findByName("m2"), 1, 1));
  EXPECT_TRUE(occ.canPlace(g.findByName("m2"), 1, 2));
}

TEST(ColumnOccupancy, LatencyFoldingAliasesResidues) {
  const dfg::Dfg g = test::addParallel(3);
  sched::Constraints c;
  c.latency = 3;
  ColumnOccupancy occ(g, c);
  const auto ops = g.operations();
  occ.place(ops[0], 1, 1);
  EXPECT_FALSE(occ.canPlace(ops[1], 1, 4));  // 4 == 1 (mod 3)
  EXPECT_TRUE(occ.canPlace(ops[1], 1, 2));
  EXPECT_TRUE(occ.canPlace(ops[1], 1, 3));
}

TEST(ColumnOccupancy, MulticycleLongerThanLatencyRejected) {
  dfg::Builder b("mc");
  const auto x = b.input("x");
  const auto y = b.input("y");
  b.mul(x, y, "m", 3);
  const dfg::Dfg g = std::move(b).build();
  sched::Constraints c;
  c.latency = 2;  // a 3-cycle op would overlap its own next initiation
  ColumnOccupancy occ(g, c);
  EXPECT_FALSE(occ.canPlace(g.findByName("m"), 1, 1));
  // A pipelined unit takes one initiation per step.
  occ.setPipelined(2, true);
  EXPECT_TRUE(occ.canPlace(g.findByName("m"), 2, 1));

  EXPECT_TRUE(overlapsOwnInitiation(3, 2, false));
  EXPECT_FALSE(overlapsOwnInitiation(3, 2, true));
  EXPECT_FALSE(overlapsOwnInitiation(2, 2, false));
  EXPECT_FALSE(overlapsOwnInitiation(3, 0, false));  // no latency
}

TEST(ColumnOccupancy, MutuallyExclusiveShareCells) {
  const dfg::Dfg g = test::branchy();
  sched::Constraints c;
  ColumnOccupancy occ(g, c);
  occ.place(g.findByName("t1"), 1, 1);
  EXPECT_TRUE(occ.canPlace(g.findByName("e1"), 1, 1));
}

TEST(Grid, RoutesByFuType) {
  dfg::Builder b("mix");
  const auto x = b.input("x");
  const auto y = b.input("y");
  const auto a1 = b.add(x, y, "a1");
  const auto a2 = b.add(y, x, "a2");
  const auto s1 = b.sub(x, y, "s1");
  b.output(a1, "o1");
  b.output(a2, "o2");
  b.output(s1, "o3");
  const dfg::Dfg g = std::move(b).build();
  sched::Constraints c;
  Grid grid(g, c);
  grid.place(a1, 1, 1);
  // Different FU type: the subtractor table is independent of the adders'.
  EXPECT_TRUE(grid.canPlace(s1, 1, 1));
  grid.place(s1, 1, 1);
  // Same FU type: the cell is taken.
  EXPECT_FALSE(grid.canPlace(a2, 1, 1));
  EXPECT_TRUE(grid.canPlace(a2, 2, 1));
}

TEST(Grid, PipelinedTypesFlaggedFromConstraints) {
  dfg::Builder b("pipe");
  const auto x = b.input("x");
  const auto y = b.input("y");
  b.mul(x, y, "m1", 2);
  b.mul(x, y, "m2", 2);
  const dfg::Dfg g = std::move(b).build();
  sched::Constraints c;
  c.pipelinedFus.insert(dfg::FuType::Multiplier);
  Grid grid(g, c);
  grid.place(g.findByName("m1"), 1, 1);
  EXPECT_TRUE(grid.canPlace(g.findByName("m2"), 1, 2));  // overlapping stages
}

}  // namespace
}  // namespace mframe::core
