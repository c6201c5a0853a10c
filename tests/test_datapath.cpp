#include "rtl/datapath.h"

#include <gtest/gtest.h>

#include "analysis/lint.h"
#include "baseline/asap_sched.h"
#include "baseline/fds.h"
#include "baseline/list_sched.h"
#include "celllib/ncr_like.h"
#include "core/mfs.h"
#include "core/mfsa.h"
#include "dfg/builder.h"
#include "helpers.h"
#include "rtl/cost.h"
#include "rtl/verify.h"
#include "workloads/benchmarks.h"

namespace mframe::rtl {
namespace {

core::MfsaResult synth(const dfg::Dfg& g, int cs) {
  static const celllib::CellLibrary lib = celllib::ncrLike();
  core::MfsaOptions o;
  o.constraints.timeSteps = cs;
  return core::runMfsa(g, lib, o);
}

TEST(Datapath, AluOfCoversEveryOperation) {
  const auto r = synth(workloads::diffeq(), 4);
  ASSERT_TRUE(r.feasible) << r.error;
  for (dfg::NodeId op : r.datapath.graph->operations())
    EXPECT_GE(r.datapath.aluIndexOf(op), 0);
}

TEST(Datapath, RegOfSignalMatchesAllocation) {
  const auto r = synth(workloads::diffeq(), 4);
  ASSERT_TRUE(r.feasible);
  const Datapath& d = r.datapath;
  for (std::size_t reg = 0; reg < d.regs.registers.size(); ++reg)
    for (std::size_t i : d.regs.registers[reg])
      EXPECT_EQ(d.registerOf(d.lifetimes[i].producer),
                static_cast<int>(reg));
}

TEST(Datapath, DenseTablesMatchBinding) {
  const auto r = synth(workloads::diffeq(), 4);
  ASSERT_TRUE(r.feasible) << r.error;
  const Datapath& d = r.datapath;
  const dfg::Dfg& g = *d.graph;
  for (const AluInstance& a : d.alus)
    for (dfg::NodeId op : a.ops) EXPECT_EQ(d.aluIndexOf(op), a.index);
  for (std::size_t reg = 0; reg < d.regs.registers.size(); ++reg)
    for (std::size_t i : d.regs.registers[reg])
      EXPECT_EQ(d.registerOf(d.lifetimes[i].producer), static_cast<int>(reg));
  int constants = 0;
  for (const dfg::Node& n : g.nodes()) {
    if (n.kind != dfg::OpKind::Input && n.kind != dfg::OpKind::Const) continue;
    EXPECT_EQ(d.aluIndexOf(n.id), -1) << n.name;
    if (n.kind != dfg::OpKind::Const) continue;
    ++constants;
    EXPECT_EQ(d.registerOf(n.id), -1) << n.name;  // hardwired, never stored
  }
  EXPECT_GT(constants, 0);
  for (const dfg::NodeId past :
       {static_cast<dfg::NodeId>(g.size()),
        static_cast<dfg::NodeId>(g.size() + 1), dfg::kNoNode}) {
    EXPECT_EQ(d.aluIndexOf(past), -1);
    EXPECT_EQ(d.registerOf(past), -1);
  }
}

TEST(Datapath, PortWiringExistsPerAlu) {
  const auto r = synth(test::smallDiamond(), 3);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.datapath.leftPort.size(), r.datapath.alus.size());
  EXPECT_EQ(r.datapath.rightPort.size(), r.datapath.alus.size());
  EXPECT_EQ(r.datapath.arrangement.size(), r.datapath.alus.size());
}

TEST(Datapath, AluSummaryGroupsIdenticalSignatures) {
  Datapath d;
  d.lib = std::make_shared<celllib::CellLibrary>(celllib::ncrLike());
  AluInstance a;
  a.module = *d.lib->cheapestFor(dfg::FuType::Adder);
  d.alus = {a, a};
  EXPECT_EQ(d.aluSummary(), "2(+)");
}

/// `s` under `c` bound column by column onto `lib`, then linted; every
/// multiplier ALU must have `mulStages` stages.
analysis::LintReport lintBound(const dfg::Dfg& g,
                               const celllib::CellLibrary& lib,
                               const sched::Schedule& s,
                               const sched::Constraints& c, int mulStages) {
  const Datapath d = buildDatapath(g, lib, s, bindByColumns(g, lib, s, c));
  for (const AluInstance& a : d.alus)
    if (lib.module(a.module).supports(dfg::FuType::Multiplier)) {
      EXPECT_EQ(lib.module(a.module).stages, mulStages) << "ALU" << a.index;
    }
  return analysis::lintDatapath(d, c, DesignStyle::Unrestricted);
}

/// The feasible schedules of every scheduler that returns a bare schedule,
/// run under `c`.
std::vector<std::pair<std::string, sched::Schedule>> bareSchedules(
    const dfg::Dfg& g, const sched::Constraints& c) {
  std::vector<std::pair<std::string, sched::Schedule>> out;
  const auto keep = [&](const char* name, const auto& r) {
    EXPECT_TRUE(r.feasible) << name << ": " << r.error;
    if (r.feasible) out.emplace_back(name, r.schedule);
  };
  keep("asap", baseline::runAsap(g, c));
  keep("list", baseline::runListScheduling(g, c));
  keep("fds", baseline::runForceDirected(g, c));
  core::MfsOptions o;
  o.constraints = c;
  keep("mfs", core::runMfs(g, o));
  EXPECT_EQ(out.size(), 4u);
  return out;
}

TEST(BindByColumns, PipelinedTypeTakesAMultiStageModule) {
  // Two independent two-cycle products on one pipelined multiplier start in
  // steps 1 and 2; a one-stage multiplier would run them concurrently.
  dfg::Builder b("pm");
  const auto x = b.input("x");
  const auto y = b.input("y");
  const auto m1 = b.mul(x, y, "m1", 2);
  const auto m2 = b.mul(y, x, "m2", 2);
  b.output(b.add(m1, m2, "s1"), "o");
  const dfg::Dfg g = std::move(b).build();
  sched::Constraints c;
  c.timeSteps = 4;
  c.fuLimit[dfg::FuType::Multiplier] = 1;
  c.pipelinedFus.insert(dfg::FuType::Multiplier);
  const celllib::CellLibrary lib =
      celllib::ncrLike({.pipelinedMultiplier = true});
  for (const auto& [name, s] : bareSchedules(g, c)) {
    const analysis::LintReport r = lintBound(g, lib, s, c, 2);
    EXPECT_TRUE(r.empty()) << name << ":\n" << r.renderText();
    if (name == "list" || name == "mfs") {
      EXPECT_EQ(s.columnOf(m1), s.columnOf(m2)) << name;
      EXPECT_NE(s.stepOf(m1), s.stepOf(m2)) << name;
    }
  }

  // Restarted every step, each two-cycle product needs a two-stage unit of
  // its own: the folded schedule has one step.
  sched::Constraints every = test::latencyOne();
  every.fuLimit[dfg::FuType::Multiplier] = 2;
  every.pipelinedFus.insert(dfg::FuType::Multiplier);
  const dfg::Dfg mc = test::multicycleChain();
  for (const auto& [name, s] : bareSchedules(mc, every)) {
    const analysis::LintReport r = lintBound(mc, lib, s, every, 2);
    EXPECT_TRUE(r.empty()) << name << ":\n" << r.renderText();
  }
}

TEST(BindByColumns, SingleCycleColumnsKeepTheCheapestModule) {
  // A single-cycle op holds only its start step on any unit, so diffeq's
  // products need no pipelined multiplier even under pipelinedFus.
  sched::Constraints c;
  c.timeSteps = 4;
  c.pipelinedFus.insert(dfg::FuType::Multiplier);
  const celllib::CellLibrary lib =
      celllib::ncrLike({.pipelinedMultiplier = true});
  const dfg::Dfg g = workloads::diffeq();
  for (const auto& [name, s] : bareSchedules(g, c)) {
    const analysis::LintReport r = lintBound(g, lib, s, c, 1);
    EXPECT_TRUE(r.empty()) << name << ":\n" << r.renderText();
  }
}

TEST(BindByColumns, PipelinedTypeNeedsAMultiStageModule) {
  sched::Constraints c = test::latencyOne();
  c.pipelinedFus.insert(dfg::FuType::Multiplier);
  const dfg::Dfg g = test::multicycleChain();
  const auto r = baseline::runAsap(g, c);
  ASSERT_TRUE(r.feasible) << r.error;
  // The default library's only multiplier has one stage.
  try {
    bindByColumns(g, celllib::ncrLike(), r.schedule, c);
    ADD_FAILURE() << "bound a pipelined column to a one-stage multiplier";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "cell library has no pipelined module for FU type "
                 "'multiplier'");
  }
}

TEST(Cost, BreakdownSumsAndCounts) {
  const auto r = synth(workloads::tseng(), 4);
  ASSERT_TRUE(r.feasible);
  const CostBreakdown c = evaluateCost(r.datapath);
  EXPECT_DOUBLE_EQ(c.total, c.aluArea + c.regArea + c.muxArea);
  EXPECT_EQ(c.aluCount, static_cast<int>(r.datapath.alus.size()));
  EXPECT_EQ(c.regCount, static_cast<int>(r.datapath.regs.count()));
  EXPECT_GE(c.muxInputCount, 2 * c.muxCount);  // every mux has >= 2 inputs
  const std::string s = c.toString();
  EXPECT_NE(s.find("um^2"), std::string::npos);
}

TEST(Cost, SinglePortWiresAreFree) {
  const auto r = synth(test::addChain(2), 2);
  ASSERT_TRUE(r.feasible);
  const CostBreakdown c = evaluateCost(r.datapath);
  // Two chained adds on one ALU: left port sees two signals but possibly one
  // register; either way, cost accounting never counts 1-input muxes.
  for (const auto& w : r.datapath.leftPort)
    if (w.sources.size() < 2)
      SUCCEED();
  EXPECT_GE(c.muxArea, 0.0);
}

TEST(Datapath, VerifierCatchesForeignBinding) {
  const auto r = synth(test::smallDiamond(), 3);
  ASSERT_TRUE(r.feasible);
  Datapath broken = r.datapath;
  // Move the multiplication into an adder-only ALU if one exists.
  const dfg::NodeId y = broken.graph->findByName("y");
  for (auto& a : broken.alus) {
    if (!broken.lib->module(a.module).supports(dfg::FuType::Multiplier)) {
      // strip y from its owner, then misbind
      for (auto& other : broken.alus)
        other.ops.erase(std::remove(other.ops.begin(), other.ops.end(), y),
                        other.ops.end());
      a.ops.push_back(y);
      broken.aluOf[y] = a.index;
      sched::Constraints c;
      c.timeSteps = 3;
      const auto v = verifyDatapath(broken, c, DesignStyle::Unrestricted);
      EXPECT_FALSE(v.empty());
      return;
    }
  }
  GTEST_SKIP() << "no adder-only ALU in this synthesis";
}

}  // namespace
}  // namespace mframe::rtl
