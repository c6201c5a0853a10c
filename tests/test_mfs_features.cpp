// MFS with the Section-5 synthesis features: conditionals, chaining,
// multicycle operations, pipelining and loop folding.
#include <gtest/gtest.h>

#include "analysis/sched_rules.h"
#include "core/mfs.h"
#include "dfg/builder.h"
#include "dfg/transforms.h"
#include "helpers.h"
#include "pipeline/functional.h"
#include "pipeline/structural.h"
#include "workloads/benchmarks.h"

namespace mframe::core {
namespace {

using dfg::FuType;

int fu(const MfsResult& r, FuType t) {
  auto it = r.fuCount.find(t);
  return it == r.fuCount.end() ? 0 : it->second;
}

TEST(MfsFeatures, MutuallyExclusiveBranchesShareOneUnit) {
  // Section 5.1: ops in different arms "can be executed on the same type of
  // FU and scheduled into the same control step without increasing the
  // required number of FUs".
  dfg::Builder b("cond");
  const auto x = b.input("x");
  const auto y = b.input("y");
  b.pushBranch("c1", "t");
  const auto t1 = b.add(x, y, "t1");
  const auto t2 = b.add(t1, x, "t2");
  b.popBranch();
  b.pushBranch("c1", "e");
  const auto e1 = b.add(y, x, "e1");
  const auto e2 = b.add(e1, y, "e2");
  b.popBranch();
  b.output(t2, "ot");
  b.output(e2, "oe");
  const dfg::Dfg g = std::move(b).build();

  MfsOptions o;
  o.constraints.timeSteps = 2;
  const auto r = runMfs(g, o);
  ASSERT_TRUE(r.feasible) << r.error;
  EXPECT_EQ(fu(r, FuType::Adder), 1);  // 4 adds, 2 steps, but exclusive arms
  EXPECT_TRUE(analysis::lintSchedule(r.schedule, o.constraints).empty());
}

TEST(MfsFeatures, ChainingMakesTightConstraintFeasible) {
  const dfg::Dfg g = workloads::chained();
  MfsOptions plain;
  plain.constraints.timeSteps = 4;
  EXPECT_FALSE(runMfs(g, plain).feasible);  // 6-deep chain needs 6 steps

  MfsOptions chain = plain;
  chain.constraints.allowChaining = true;
  chain.constraints.clockNs = 100.0;
  const auto r = runMfs(g, chain);
  ASSERT_TRUE(r.feasible) << r.error;
  EXPECT_TRUE(analysis::lintSchedule(r.schedule, chain.constraints).empty());
  EXPECT_EQ(fu(r, FuType::Adder), 2);
  EXPECT_EQ(fu(r, FuType::Subtractor), 1);
}

TEST(MfsFeatures, ChainingAtThreeStepsStillBalanced) {
  MfsOptions o;
  o.constraints.timeSteps = 3;
  o.constraints.allowChaining = true;
  o.constraints.clockNs = 100.0;
  const auto r = runMfs(workloads::chained(), o);
  ASSERT_TRUE(r.feasible) << r.error;
  EXPECT_TRUE(analysis::lintSchedule(r.schedule, o.constraints).empty());
}

TEST(MfsFeatures, MulticycleOperationsStayContiguous) {
  MfsOptions o;
  o.constraints.timeSteps = 13;
  const auto r = runMfs(workloads::arLattice(), o);
  ASSERT_TRUE(r.feasible) << r.error;
  // The verifier enforces contiguity + occupancy over both cycles.
  EXPECT_TRUE(analysis::lintSchedule(r.schedule, o.constraints).empty());
  const dfg::Dfg& g = r.schedule.graph();
  for (dfg::NodeId id : g.operations()) {
    if (g.node(id).cycles == 2) {
      EXPECT_LE(r.schedule.stepOf(id) + 1, r.steps);
    }
  }
}

TEST(MfsFeatures, StructuralPipeliningCutsMultiplierCount) {
  const dfg::Dfg g = workloads::ewfLike();
  MfsOptions plain;
  plain.constraints.timeSteps = 17;
  const auto rPlain = runMfs(g, plain);
  ASSERT_TRUE(rPlain.feasible) << rPlain.error;

  MfsOptions piped = plain;
  piped.constraints = pipeline::withStructuralPipelining(
      piped.constraints, {FuType::Multiplier});
  piped.constraints.timeSteps = 17;
  const auto rPiped = runMfs(g, piped);
  ASSERT_TRUE(rPiped.feasible) << rPiped.error;
  EXPECT_TRUE(
      analysis::lintSchedule(rPiped.schedule, piped.constraints).empty());
  EXPECT_LE(fu(rPiped, FuType::Multiplier), fu(rPlain, FuType::Multiplier));
}

TEST(MfsFeatures, FunctionalPipeliningBoundsFollowLatency) {
  // 8 independent adds folded at L: at least ceil(8/L) adders are needed,
  // and MFS should achieve exactly that for an independent set.
  const dfg::Dfg g = test::addParallel(8);
  for (int latency : {2, 4}) {
    const auto r = pipeline::runFunctionalPipelinedMfs(g, 8, latency);
    ASSERT_TRUE(r.feasible) << r.error;
    EXPECT_EQ(r.fuCount.at(FuType::Adder), 8 / latency) << "L=" << latency;
    sched::Constraints vc;
    vc.timeSteps = 8;
    vc.latency = latency;
    EXPECT_TRUE(analysis::lintSchedule(r.mfs.schedule, vc).empty());
  }
}

TEST(MfsFeatures, OpLongerThanLatencyIsRejectedAtOnce) {
  core::MfsOptions o;
  o.constraints = test::latencyOne();
  const auto r = core::runMfs(test::multicycleChain(), o);
  EXPECT_FALSE(r.feasible);
  EXPECT_TRUE(test::namesSelfOverlap(r.error)) << r.error;

  o.constraints.pipelinedFus.insert(FuType::Multiplier);
  const auto p = core::runMfs(test::multicycleChain(), o);
  ASSERT_TRUE(p.feasible) << p.error;
  EXPECT_TRUE(analysis::lintSchedule(p.schedule, o.constraints).empty());
}

TEST(MfsFeatures, FunctionalPipeliningDiffeq) {
  const auto r = pipeline::runFunctionalPipelinedMfs(workloads::diffeq(), 6, 3);
  ASSERT_TRUE(r.feasible) << r.error;
  sched::Constraints vc;
  vc.timeSteps = 6;
  vc.latency = 3;
  EXPECT_TRUE(analysis::lintSchedule(r.mfs.schedule, vc).empty());
  // Six multiplications every 3 steps: at least two multipliers.
  EXPECT_GE(r.fuCount.at(FuType::Multiplier), 2);
}

TEST(MfsFeatures, FoldedLoopSchedulesAsOneMulticycleOp) {
  // Build an inner loop (3-add chain), fold it into an outer body, then
  // schedule the outer body with MFS as the BodyScheduler.
  dfg::LoopNest inner;
  inner.body = test::addChain(3);
  inner.body.setName("inner");
  inner.localTimeConstraint = 3;

  dfg::LoopNest outer;
  {
    dfg::Dfg g("outerBody");
    dfg::Node in;
    in.kind = dfg::OpKind::Input;
    in.name = "x";
    const dfg::NodeId xi = g.addNode(in);
    dfg::Node sp;
    sp.kind = dfg::OpKind::LoopSuper;
    sp.name = "inner";
    sp.inputs = {xi};
    const dfg::NodeId spId = g.addNode(sp);
    dfg::Node post;
    post.kind = dfg::OpKind::Not;
    post.name = "post";
    post.inputs = {spId};
    g.addNode(post);
    g.markOutput(2, "post");
    outer.body = std::move(g);
  }
  outer.localTimeConstraint = 5;
  outer.children.push_back(std::move(inner));

  const dfg::Dfg folded = dfg::foldLoopNest(outer, [](const dfg::Dfg& body, int cs) {
    MfsOptions o;
    o.constraints.timeSteps = cs;
    const auto r = runMfs(body, o);
    EXPECT_TRUE(r.feasible) << r.error;
    return r.steps;
  });
  const dfg::NodeId super = folded.findByName("inner");
  ASSERT_NE(super, dfg::kNoNode);
  EXPECT_EQ(folded.node(super).cycles, 3);

  MfsOptions o;
  o.constraints.timeSteps = 5;
  const auto r = runMfs(folded, o);
  ASSERT_TRUE(r.feasible) << r.error;
  // The super-node occupies 3 consecutive steps, then `post` runs.
  EXPECT_GE(r.schedule.stepOf(folded.findByName("post")),
            r.schedule.stepOf(super) + 3);
  EXPECT_TRUE(analysis::lintSchedule(r.schedule, o.constraints).empty());
}

TEST(MfsFeatures, MergedConditionalsReduceWork) {
  dfg::Dfg g = test::branchy();
  const std::size_t before = g.operations().size();
  dfg::mergeSharedBranchOps(g);
  ASSERT_LT(g.operations().size(), before);
  MfsOptions o;
  o.constraints.timeSteps = 2;
  const auto r = runMfs(g, o);
  ASSERT_TRUE(r.feasible) << r.error;
  EXPECT_TRUE(analysis::lintSchedule(r.schedule, o.constraints).empty());
}

}  // namespace
}  // namespace mframe::core
