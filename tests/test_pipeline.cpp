#include <gtest/gtest.h>

#include "analysis/sched_rules.h"
#include "core/mfs.h"
#include "helpers.h"
#include "pipeline/functional.h"
#include "pipeline/structural.h"
#include "workloads/benchmarks.h"

namespace mframe::pipeline {
namespace {

using dfg::FuType;

TEST(Structural, ConstraintHelperMarksTypes) {
  const auto c = withStructuralPipelining({}, {FuType::Multiplier, FuType::Divider});
  EXPECT_TRUE(c.pipelinedFus.count(FuType::Multiplier));
  EXPECT_TRUE(c.pipelinedFus.count(FuType::Divider));
  EXPECT_FALSE(c.pipelinedFus.count(FuType::Adder));
}

TEST(Structural, StageSlicesEnumerateTheDiagonal) {
  const auto s = stageSlices(3, 2);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0], std::make_pair(1, 3));
  EXPECT_EQ(s[1], std::make_pair(2, 4));
}

TEST(Structural, SliceConflictIffSameStartStep) {
  // The paper's stage-expansion view and the "conflict iff equal start"
  // shortcut must agree for every start-step pair.
  for (int cycles : {2, 3, 4}) {
    for (int s1 = 1; s1 <= 6; ++s1) {
      for (int s2 = 1; s2 <= 6; ++s2) {
        const auto a = stageSlices(s1, cycles);
        const auto b = stageSlices(s2, cycles);
        bool intersect = false;
        for (const auto& x : a)
          for (const auto& y : b)
            if (x == y) intersect = true;
        EXPECT_EQ(intersect, s1 == s2) << cycles << " " << s1 << " " << s2;
      }
    }
  }
}

TEST(Functional, PartitionBoundaryIsCeilHalf) {
  EXPECT_EQ(partitionBoundary(6, 2), 4);   // ceil(8/2)
  EXPECT_EQ(partitionBoundary(7, 2), 5);   // ceil(9/2)
  EXPECT_EQ(partitionBoundary(17, 3), 10); // ceil(20/2)
}

TEST(Functional, TwoInstanceDfgValidatesAndDoubles) {
  const dfg::Dfg g = workloads::diffeq();
  const dfg::Dfg d = buildTwoInstanceDfg(g, 3);
  EXPECT_FALSE(d.validate().has_value());
  // Two copies of every real operation (instance-2 inputs became pseudo-ops).
  std::size_t muls = 0;
  for (const dfg::Node& n : d.nodes())
    if (n.kind == dfg::OpKind::Mul) ++muls;
  EXPECT_EQ(muls, 12u);
  EXPECT_EQ(d.outputs().size(), 2 * g.outputs().size());
}

TEST(Functional, SecondInstanceShiftedByLatency) {
  const dfg::Dfg g = test::addChain(3);
  const int L = 2;
  const dfg::Dfg d = buildTwoInstanceDfg(g, L);
  sched::Constraints c;
  const auto tf = computeTimeFrames(d, c);
  ASSERT_TRUE(tf.has_value());
  const auto c1i1 = d.findByName("c1_i1");
  const auto c1i2 = d.findByName("c1_i2");
  ASSERT_NE(c1i1, dfg::kNoNode);
  ASSERT_NE(c1i2, dfg::kNoNode);
  EXPECT_EQ(tf->asap(c1i2), tf->asap(c1i1) + L);  // delay chain + gate op
}

TEST(Functional, FoldedScheduleValidWhenShiftedCopiesOverlap) {
  // The folded schedule must stay conflict-free when a second instance runs
  // L steps behind: ops at steps s and s' collide across instances iff
  // s ≡ s' (mod L), which the folded occupancy already forbids.
  const dfg::Dfg g = workloads::fir8();
  const int cs = 8;
  const int L = 4;
  const auto r = runFunctionalPipelinedMfs(g, cs, L);
  ASSERT_TRUE(r.feasible) << r.error;
  const auto& s = r.mfs.schedule;
  for (dfg::NodeId a : g.operations()) {
    for (dfg::NodeId b : g.operations()) {
      if (a == b) continue;
      if (dfg::fuTypeOf(g.node(a).kind) != dfg::fuTypeOf(g.node(b).kind))
        continue;
      if (s.columnOf(a) != s.columnOf(b)) continue;
      // Same FU instance: instance-1 op a at step sa vs instance-2 op b at
      // step sb + L must not collide for any shift k*L.
      const int sa = s.stepOf(a);
      const int sb = s.stepOf(b) + L;
      EXPECT_NE((sa - 1) % L, (sb - 1) % L)
          << g.node(a).name << " vs shifted " << g.node(b).name;
    }
  }
}

TEST(Functional, ThroughputDemandGrowsAsLatencyShrinks) {
  const dfg::Dfg g = workloads::fir8();
  const auto r2 = runFunctionalPipelinedMfs(g, 8, 2);
  const auto r4 = runFunctionalPipelinedMfs(g, 8, 4);
  ASSERT_TRUE(r2.feasible && r4.feasible);
  EXPECT_GE(r2.fuCount.at(FuType::Multiplier), r4.fuCount.at(FuType::Multiplier));
  EXPECT_GE(r2.fuCount.at(FuType::Multiplier), 8 / 2);  // 8 muls every 2 steps
}

TEST(Functional, PartitionMaterializationPassesThePlainVerifier) {
  // The paper's two-instance construction, validated end to end: the folded
  // schedule is materialized as two explicitly overlapped instances of
  // DFG_double and must satisfy the *unfolded* verifier.
  for (const auto& [g, cs, L] :
       {std::tuple{workloads::fir8(), 8, 4},
        std::tuple{workloads::diffeq(), 6, 3},
        std::tuple{test::addParallel(6), 4, 2}}) {
    const auto r = pipelineByPartition(g, cs, L);
    ASSERT_TRUE(r.feasible) << g.name() << ": " << r.error;
    sched::Constraints plain;
    plain.timeSteps = cs + L;
    const auto bad = analysis::lintSchedule(r.doubled, plain).messages();
    EXPECT_TRUE(bad.empty()) << g.name() << ": "
                             << (bad.empty() ? "" : bad.front());
  }
}

TEST(Functional, PartitionAgreesWithFoldedDemand) {
  const dfg::Dfg g = workloads::fir8();
  const auto folded = runFunctionalPipelinedMfs(g, 8, 4);
  const auto part = pipelineByPartition(g, 8, 4);
  ASSERT_TRUE(folded.feasible && part.feasible);
  EXPECT_EQ(part.fuCount.at(FuType::Multiplier),
            folded.fuCount.at(FuType::Multiplier));
  EXPECT_EQ(part.boundary, partitionBoundary(8, 4));
}

TEST(Functional, PartitionRecordsInstanceOneSteps) {
  const dfg::Dfg g = workloads::diffeq();
  const auto r = pipelineByPartition(g, 6, 3);
  ASSERT_TRUE(r.feasible) << r.error;
  EXPECT_EQ(r.stepOfInstance1.size(), g.operations().size());
  for (const auto& [name, step] : r.stepOfInstance1) {
    EXPECT_GE(step, 1);
    EXPECT_LE(step, 6);
  }
}

TEST(Functional, InfeasibleLatencyReported) {
  // A 2-cycle multiply cannot fold at L=1 on a non-pipelined unit.
  const auto r = runFunctionalPipelinedMfs(workloads::arLattice(), 13, 1);
  EXPECT_FALSE(r.feasible);
}

}  // namespace
}  // namespace mframe::pipeline
