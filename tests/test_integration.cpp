// End-to-end flows: text -> DFG -> MFS/MFSA -> controller -> Verilog, plus
// combined-feature designs (conditionals + loops + chaining together).
// Every synthesized datapath is also pushed through the translation
// validator (analysis::proveDatapath) — an empty report is the referee's
// sign-off that the structure computes the source DFG.
#include <gtest/gtest.h>

#include "analysis/sched_rules.h"
#include "analysis/validate/validate.h"
#include "celllib/ncr_like.h"
#include "core/mfs.h"
#include "core/mfsa.h"
#include "dfg/dot.h"
#include "dfg/parser.h"
#include "dfg/transforms.h"
#include "helpers.h"
#include "rtl/controller.h"
#include "rtl/verify.h"
#include "rtl/verilog.h"
#include "workloads/benchmarks.h"

namespace mframe {
namespace {

TEST(Integration, TextToVerilog) {
  const dfg::Dfg g = dfg::parse(R"(
dfg accum
input x0
input x1
input x2
const 2 two
op mul p0 x0 two
op mul p1 x1 two
op add s0 p0 p1
op add s1 s0 x2
output y s1
)");
  static const celllib::CellLibrary lib = celllib::ncrLike();
  core::MfsaOptions o;
  o.constraints.timeSteps = 3;
  const auto r = core::runMfsa(g, lib, o);
  ASSERT_TRUE(r.feasible) << r.error;
  EXPECT_TRUE(
      rtl::verifyDatapath(r.datapath, o.constraints, rtl::DesignStyle::Unrestricted)
          .empty());
  const analysis::LintReport proof = analysis::proveDatapath(r.datapath);
  EXPECT_TRUE(proof.empty()) << proof.renderText();
  const auto fsm = rtl::buildController(r.datapath);
  const std::string v = rtl::toVerilog(r.datapath, fsm);
  EXPECT_NE(v.find("module accum("), std::string::npos);
  EXPECT_NE(v.find("out_y"), std::string::npos);
}

TEST(Integration, DotExportRanksByScheduleStep) {
  const dfg::Dfg g = test::smallDiamond();
  core::MfsOptions o;
  o.constraints.timeSteps = 3;
  const auto r = core::runMfs(g, o);
  ASSERT_TRUE(r.feasible);
  const std::string dot = dfg::toDot(g, r.schedule.stepMap());
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("rank=same"), std::string::npos);
  EXPECT_NE(dot.find("@1"), std::string::npos);
}

TEST(Integration, ConditionalLoopChainingCombined) {
  // A loop body with a conditional (shared op across arms) and chainable
  // tail, folded into an outer graph and pushed through MFS + MFSA.
  dfg::Builder ib("body");
  const auto x = ib.input("x");
  const auto k = ib.input("k");
  ib.pushBranch("c1", "t");
  const auto t1 = ib.add(x, k, "t1");
  const auto t2 = ib.mul(t1, k, "t2");
  ib.popBranch();
  ib.pushBranch("c1", "e");
  const auto e1 = ib.add(x, k, "e1");  // shared with t1 -> merged
  const auto e2 = ib.sub(e1, k, "e2");
  ib.popBranch();
  const auto j = ib.add(t2, e2, "j");
  ib.output(j, "j");
  dfg::Dfg body = std::move(ib).build();
  dfg::addLoopBookkeeping(body, "i", 8);
  EXPECT_EQ(dfg::mergeSharedBranchOps(body), 1u);

  dfg::LoopNest inner;
  inner.body = body;
  inner.body.setName("loop1");
  inner.localTimeConstraint = 4;

  dfg::LoopNest top;
  {
    dfg::Dfg g("top");
    dfg::Node in;
    in.kind = dfg::OpKind::Input;
    in.name = "seed";
    const auto seed = g.addNode(in);
    dfg::Node sp;
    sp.kind = dfg::OpKind::LoopSuper;
    sp.name = "loop1";
    sp.inputs = {seed};
    const auto spId = g.addNode(sp);
    dfg::Node post;
    post.kind = dfg::OpKind::Inc;
    post.name = "final";
    post.inputs = {spId};
    const auto p = g.addNode(post);
    g.markOutput(p, "final");
    top.body = std::move(g);
  }
  top.localTimeConstraint = 6;
  top.children.push_back(std::move(inner));

  const dfg::Dfg folded = dfg::foldLoopNest(top, [](const dfg::Dfg& b, int cs) {
    core::MfsOptions o;
    o.constraints.timeSteps = cs;
    const auto r = core::runMfs(b, o);
    EXPECT_TRUE(r.feasible) << r.error;
    return r.feasible ? r.steps : cs + 1;
  });

  core::MfsOptions o;
  o.constraints.timeSteps = 6;
  const auto r = core::runMfs(folded, o);
  ASSERT_TRUE(r.feasible) << r.error;
  EXPECT_TRUE(analysis::lintSchedule(r.schedule, o.constraints).empty());
}

TEST(Integration, SerializeBenchmarksRoundTripThroughScheduling) {
  // Text round-trip must not change scheduling results.
  const dfg::Dfg g1 = workloads::diffeq();
  const dfg::Dfg g2 = dfg::parse(dfg::serialize(g1));
  core::MfsOptions o;
  o.constraints.timeSteps = 4;
  const auto r1 = core::runMfs(g1, o);
  const auto r2 = core::runMfs(g2, o);
  ASSERT_TRUE(r1.feasible && r2.feasible);
  EXPECT_EQ(r1.fuCount, r2.fuCount);
}

TEST(Integration, MfsaScheduleAgreesWithMfsLatency) {
  // MFSA shares the time-frame machinery, so at the same constraint its
  // schedule also fits — no op beyond cs.
  static const celllib::CellLibrary lib = celllib::ncrLike();
  for (int cs : {4, 6}) {
    core::MfsaOptions o;
    o.constraints.timeSteps = cs;
    const auto r = core::runMfsa(workloads::diffeq(), lib, o);
    ASSERT_TRUE(r.feasible) << r.error;
    const dfg::Dfg& g = *r.datapath.graph;
    for (dfg::NodeId id : g.operations())
      EXPECT_LE(r.datapath.schedule.stepOf(id) + g.node(id).cycles - 1, cs);
  }
}

TEST(Integration, ChainedBenchmarkFullFlow) {
  static const celllib::CellLibrary lib = celllib::ncrLike();
  core::MfsaOptions o;
  o.constraints.timeSteps = 4;
  o.constraints.allowChaining = true;
  o.constraints.clockNs = 100.0;
  const auto r = core::runMfsa(workloads::chained(), lib, o);
  ASSERT_TRUE(r.feasible) << r.error;
  EXPECT_TRUE(rtl::verifyDatapath(r.datapath, o.constraints,
                                  rtl::DesignStyle::Unrestricted)
                  .empty());
  const analysis::LintReport proof = analysis::proveDatapath(r.datapath);
  EXPECT_TRUE(proof.empty()) << proof.renderText();
  const auto fsm = rtl::buildController(r.datapath);
  EXPECT_EQ(fsm.microOps.size(), r.datapath.graph->operations().size());
}

}  // namespace
}  // namespace mframe
