#include "core/grid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "dfg/builder.h"
#include "helpers.h"
#include "util/strings.h"

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

// ---------------------------------------------------------------------------
// firstPlaceable() against the walk it replaces: canPlace() at every step of
// the window in turn.

int walkOracle(const ColumnOccupancy& occ, NodeId n, int col, int from,
               int to) {
  for (int s = from; s <= to; ++s)
    if (occ.canPlace(n, col, s)) return s;
  return 0;
}

TEST(ColumnOccupancy, FirstPlaceableJumpsOverFullCells) {
  dfg::Builder b("mc");
  const auto x = b.input("x");
  const auto y = b.input("y");
  b.mul(x, y, "m3", 3);
  b.mul(x, y, "u", 1);
  b.mul(x, y, "d", 2);
  b.mul(x, y, "m1", 1);
  const dfg::Dfg g = std::move(b).build();
  sched::Constraints c;
  ColumnOccupancy occ(g, c);
  occ.place(g.findByName("m3"), 1, 2);  // cells 2, 3, 4
  const NodeId u = g.findByName("u");
  EXPECT_EQ(occ.firstPlaceable(u, 1, 1, 6), 1);
  EXPECT_EQ(occ.firstPlaceable(u, 1, 2, 6), 5);  // starts on a full cell
  EXPECT_EQ(occ.firstPlaceable(u, 1, 3, 4), 0);  // ends on one: all full
  EXPECT_EQ(occ.firstPlaceable(u, 2, 2, 4), 2);  // another column is empty
  // Placed after the column's first walk: the pointers follow.
  occ.place(g.findByName("m1"), 1, 6);
  EXPECT_EQ(occ.firstPlaceable(u, 1, 5, 9), 5);
  EXPECT_EQ(occ.firstPlaceable(u, 1, 6, 9), 7);
  // A two-cycle op needs two consecutive open cells: 1 runs into 2, 5 into 6.
  const NodeId d = g.findByName("d");
  EXPECT_EQ(occ.firstPlaceable(d, 1, 1, 9), 7);
  EXPECT_EQ(occ.firstPlaceable(d, 1, 1, 6), 0);
}

// Cells filled after a column's first walk past a blocked step are jumped
// over too, and path compression makes repeated walks over one run of full
// cells cheap.
TEST(ColumnOccupancy, FirstPlaceableHopsStayFewOverAFullRun) {
  const dfg::Dfg g = test::addParallel(61);
  sched::Constraints c;
  ColumnOccupancy occ(g, c);
  const auto ops = g.operations();
  occ.place(ops[0], 1, 1);
  EXPECT_EQ(occ.firstPlaceable(ops[60], 1, 1, 100), 2);  // builds the array
  for (int i = 1; i < 60; ++i) occ.place(ops[i], 1, i + 1);
  const std::uint64_t p0 = occ.walkProbes();
  for (int q = 0; q < 20; ++q)
    EXPECT_EQ(occ.firstPlaceable(ops[60], 1, 1, 100), 61);
  // The step-by-step walk examines 61 steps per query.
  EXPECT_LT(occ.walkProbes() - p0, 20u * 61 / 4);
}

TEST(ColumnOccupancy, FirstPlaceableProbesCellsOfConditionalOps) {
  const dfg::Dfg g = test::branchy();
  sched::Constraints c;
  ColumnOccupancy occ(g, c);
  occ.place(g.findByName("t1"), 1, 1);
  // The other arm may share t1's cell; an unconditional op may not.
  EXPECT_EQ(occ.firstPlaceable(g.findByName("e1"), 1, 1, 3), 1);
  EXPECT_EQ(occ.firstPlaceable(g.findByName("j"), 1, 1, 3), 2);
  EXPECT_EQ(occ.firstPlaceable(g.findByName("j"), 1, 1, 1), 0);
}

// Under latency L, steps L apart fold onto one cell, so the first L steps
// of a window decide it.
TEST(ColumnOccupancy, FirstPlaceableOnAFoldedColumnTriesOneLatency) {
  const dfg::Dfg g = test::addParallel(4);
  sched::Constraints c;
  c.latency = 3;
  ColumnOccupancy occ(g, c);
  const auto ops = g.operations();
  occ.place(ops[0], 1, 1);  // folded cell 0: steps 1, 4, 7, ...
  occ.place(ops[1], 1, 5);  // folded cell 1: steps 2, 5, 8, ...
  EXPECT_EQ(occ.firstPlaceable(ops[3], 1, 1, 10), 3);
  EXPECT_EQ(occ.firstPlaceable(ops[3], 1, 4, 10), 6);
  EXPECT_EQ(occ.firstPlaceable(ops[3], 1, 4, 5), 0);
  occ.place(ops[2], 1, 9);  // folded cell 2: now every step is taken
  const std::uint64_t p0 = occ.walkProbes();
  EXPECT_EQ(occ.firstPlaceable(ops[3], 1, 1, 1000), 0);
  EXPECT_EQ(occ.walkProbes() - p0, 3u);
}

/// `count` ops of 1-3 cycles. A third sit at the top level; the rest are
/// spread over both arms of conditional c1, an arm nested in c1's first
/// arm, and an unrelated conditional c2, so occupants are exclusive with
/// some ops and not with others.
dfg::Dfg mixedOps(int count, std::mt19937& rng) {
  dfg::Builder b("mixed");
  const auto x = b.input("x");
  const auto y = b.input("y");
  for (int i = 0; i < count; ++i) {
    const unsigned scope = rng() % 6;
    if (scope == 1 || scope == 3) b.pushBranch("c1", "t");
    if (scope == 2) b.pushBranch("c1", "e");
    if (scope == 3) b.pushBranch("c3", "t");
    if (scope == 4) b.pushBranch("c2", "t");
    b.mul(x, y, util::format("m%d", i), 1 + static_cast<int>(rng() % 3));
    if (scope == 3) b.popBranch();
    if (scope >= 1 && scope <= 4) b.popBranch();
  }
  return std::move(b).build();
}

/// Seeded random placements on three columns, one of them pipelined, with
/// and without latency folding: before each op is placed, firstPlaceable
/// over a random window of a random column must equal the oracle's answer.
/// Each op then goes to that answer, or to a random open step, so columns
/// fill into long runs of full cells, some walked before any placement and
/// some only after many.
TEST(ColumnOccupancy, FirstPlaceableMatchesTheStepWalk) {
  int queries = 0, found = 0;
  for (unsigned seed = 1; seed <= 12; ++seed) {
    std::mt19937 rng(seed);
    const dfg::Dfg g = mixedOps(150, rng);
    std::vector<NodeId> ops(g.operations().begin(), g.operations().end());
    std::shuffle(ops.begin(), ops.end(), rng);
    sched::Constraints c;
    c.latency = seed % 3 == 0 ? static_cast<int>(20 + seed) : 0;
    ColumnOccupancy occ(g, c);
    occ.setPipelined(2, true);
    const int steps = 60;
    for (NodeId n : ops) {
      const int col = 1 + static_cast<int>(rng() % 3);
      const int from = 1 + static_cast<int>(rng() % steps);
      const int to = from + static_cast<int>(rng() % steps);
      const int want = walkOracle(occ, n, col, from, to);
      ASSERT_EQ(occ.firstPlaceable(n, col, from, to), want)
          << "seed " << seed << " op " << g.node(n).name << " col " << col
          << " window [" << from << ", " << to << "]";
      ++queries;
      if (want != 0) {
        ++found;
        occ.place(n, col, want);
        continue;
      }
      const int s = 1 + static_cast<int>(rng() % steps);
      if (occ.canPlace(n, col, s)) occ.place(n, col, s);
    }
  }
  // Both answers occur often: the windows neither always fit nor never do.
  EXPECT_GT(found, queries / 4);
  EXPECT_LT(found, queries * 3 / 4);
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
