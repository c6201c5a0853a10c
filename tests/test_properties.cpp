// Property-based sweeps: random DFGs x random constraints through the whole
// stack, asserting verifier cleanliness and the Liapunov invariants the
// paper's theorem demands.
#include <gtest/gtest.h>

#include "analysis/sched_rules.h"
#include "celllib/ncr_like.h"
#include "core/mfs.h"
#include "core/mfsa.h"
#include "rtl/controller.h"
#include "rtl/verify.h"
#include "sim/dfg_eval.h"
#include "sim/rtl_sim.h"
#include "workloads/random_dfg.h"

namespace mframe {
namespace {

using core::MfsLiapunov;

struct PropertyCase {
  std::uint32_t seed;
  int numOps;
  int slack;        ///< steps beyond the critical path
  int mulPercent;
  int twoCyclePercent;
  int branchPercent;
};

class MfsProperty : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(MfsProperty, TimeConstrainedScheduleIsValidAndMonotone) {
  const auto& pc = GetParam();
  workloads::RandomDfgOptions o;
  o.seed = pc.seed;
  o.numOps = pc.numOps;
  o.mulPercent = pc.mulPercent;
  o.twoCyclePercent = pc.twoCyclePercent;
  o.branchPercent = pc.branchPercent;
  const dfg::Dfg g = workloads::randomDfg(o);

  sched::Constraints probe;
  const auto tf = computeTimeFrames(g, probe);
  ASSERT_TRUE(tf.has_value());

  core::MfsOptions mo;
  mo.constraints.timeSteps = tf->criticalSteps() + pc.slack;
  const auto r = core::runMfs(g, mo);
  ASSERT_TRUE(r.feasible) << r.error;
  EXPECT_TRUE(analysis::lintSchedule(r.schedule, mo.constraints).empty());

  ASSERT_FALSE(r.liapunovTrace.empty());
  for (std::size_t i = 1; i < r.liapunovTrace.size(); ++i)
    EXPECT_LE(r.liapunovTrace[i], r.liapunovTrace[i - 1]);
}

TEST_P(MfsProperty, ResourceModeNeverBeatsCriticalPathAndStaysValid) {
  const auto& pc = GetParam();
  workloads::RandomDfgOptions o;
  o.seed = pc.seed + 1000;
  o.numOps = pc.numOps;
  o.mulPercent = pc.mulPercent;
  o.twoCyclePercent = pc.twoCyclePercent;
  const dfg::Dfg g = workloads::randomDfg(o);

  core::MfsOptions mo;
  mo.mode = MfsLiapunov::Mode::ResourceConstrained;
  for (std::size_t t = 0; t < dfg::kNumFuTypes; ++t)
    mo.constraints.fuLimit[static_cast<dfg::FuType>(t)] = 2;
  const auto r = core::runMfs(g, mo);
  ASSERT_TRUE(r.feasible) << r.error;

  sched::Constraints probe;
  const auto tf = computeTimeFrames(g, probe);
  EXPECT_GE(r.steps, tf->criticalSteps());
  sched::Constraints vc = mo.constraints;
  vc.timeSteps = r.steps;
  EXPECT_TRUE(analysis::lintSchedule(r.schedule, vc).empty());
}

TEST_P(MfsProperty, MfsaDatapathVerifiesBothStyles) {
  const auto& pc = GetParam();
  workloads::RandomDfgOptions o;
  o.seed = pc.seed + 2000;
  o.numOps = std::min(pc.numOps, 24);  // MFSA sweep kept modest
  o.mulPercent = pc.mulPercent;
  o.twoCyclePercent = pc.twoCyclePercent;
  o.branchPercent = pc.branchPercent;
  const dfg::Dfg g = workloads::randomDfg(o);

  static const celllib::CellLibrary lib = celllib::ncrLike();
  sched::Constraints probe;
  const auto tf = computeTimeFrames(g, probe);
  ASSERT_TRUE(tf.has_value());

  for (auto style :
       {rtl::DesignStyle::Unrestricted, rtl::DesignStyle::NoSelfLoop}) {
    core::MfsaOptions ao;
    ao.constraints.timeSteps = tf->criticalSteps() + std::max(pc.slack, 1);
    ao.style = style;
    const auto r = core::runMfsa(g, lib, ao);
    ASSERT_TRUE(r.feasible) << r.error;
    EXPECT_TRUE(rtl::verifyDatapath(r.datapath, ao.constraints, style).empty());
    for (std::size_t i = 1; i < r.liapunovTrace.size(); ++i)
      EXPECT_LE(r.liapunovTrace[i], r.liapunovTrace[i - 1]);
  }
}

TEST_P(MfsProperty, SynthesizedRtlIsFunctionallyEquivalent) {
  // The strongest end-to-end property: for random graphs and random input
  // vectors, simulating the synthesized datapath + controller produces
  // exactly the values the behavioral DFG computes.
  const auto& pc = GetParam();
  workloads::RandomDfgOptions o;
  o.seed = pc.seed + 4000;
  o.numOps = std::min(pc.numOps, 32);
  o.mulPercent = pc.mulPercent;
  o.twoCyclePercent = pc.twoCyclePercent;
  o.branchPercent = pc.branchPercent;
  const dfg::Dfg g = workloads::randomDfg(o);

  static const celllib::CellLibrary lib = celllib::ncrLike();
  sched::Constraints probe;
  const auto tf = computeTimeFrames(g, probe);
  core::MfsaOptions ao;
  ao.constraints.timeSteps = tf->criticalSteps() + std::max(pc.slack, 1);
  const auto r = core::runMfsa(g, lib, ao);
  ASSERT_TRUE(r.feasible) << r.error;
  const auto fsm = rtl::buildController(r.datapath);

  for (sim::Word base : {sim::Word{0}, sim::Word{7}, sim::Word{40000}}) {
    std::map<std::string, sim::Word> in;
    sim::Word v = base;
    for (const dfg::Node& n : g.nodes())
      if (n.kind == dfg::OpKind::Input) in[n.name] = (v = v * 31 + 17);
    const auto ref = sim::evalDfg(g, in);
    ASSERT_TRUE(ref.ok) << ref.error;
    const auto rtlOut = sim::simulateRtl(r.datapath, fsm, in);
    ASSERT_TRUE(rtlOut.ok) << rtlOut.error;
    for (const auto& [name, value] : ref.outputs)
      EXPECT_EQ(rtlOut.outputs.at(name), value) << name << " base " << base;
  }
}

TEST_P(MfsProperty, FunctionalFoldingStaysValid) {
  const auto& pc = GetParam();
  workloads::RandomDfgOptions o;
  o.seed = pc.seed + 3000;
  o.numOps = pc.numOps;
  o.mulPercent = 15;
  o.twoCyclePercent = 0;  // folding with unit ops
  const dfg::Dfg g = workloads::randomDfg(o);

  sched::Constraints probe;
  const auto tf = computeTimeFrames(g, probe);
  const int cs = tf->criticalSteps() + 2;
  const int latency = std::max(2, cs / 2);

  core::MfsOptions mo;
  mo.constraints.timeSteps = cs;
  mo.constraints.latency = latency;
  const auto r = core::runMfs(g, mo);
  ASSERT_TRUE(r.feasible) << r.error;
  EXPECT_TRUE(analysis::lintSchedule(r.schedule, mo.constraints).empty());
}

TEST_P(MfsProperty, ChainedSchedulesStayValidAndEquivalent) {
  // Random delays + chaining through MFS, then through MFSA with RTL
  // simulation against the reference — the chaining machinery end to end.
  const auto& pc = GetParam();
  workloads::RandomDfgOptions o;
  o.seed = pc.seed + 5000;
  o.numOps = std::min(pc.numOps, 28);
  o.mulPercent = 10;       // keep most delays chainable under 100 ns
  o.twoCyclePercent = 0;
  o.randomDelays = true;
  const dfg::Dfg g = workloads::randomDfg(o);

  sched::Constraints c;
  c.allowChaining = true;
  c.clockNs = 100.0;
  const auto tf = computeTimeFrames(g, c);
  ASSERT_TRUE(tf.has_value());
  c.timeSteps = tf->criticalSteps() + pc.slack;

  core::MfsOptions mo;
  mo.constraints = c;
  const auto r = core::runMfs(g, mo);
  ASSERT_TRUE(r.feasible) << r.error;
  EXPECT_TRUE(analysis::lintSchedule(r.schedule, c).empty());

  static const celllib::CellLibrary lib = celllib::ncrLike();
  core::MfsaOptions ao;
  ao.constraints = c;
  const auto ra = core::runMfsa(g, lib, ao);
  ASSERT_TRUE(ra.feasible) << ra.error;
  const auto fsm = rtl::buildController(ra.datapath);
  std::map<std::string, sim::Word> in;
  sim::Word v = 5;
  for (const dfg::Node& n : g.nodes())
    if (n.kind == dfg::OpKind::Input) in[n.name] = (v = v * 13 + 7);
  const auto ref = sim::evalDfg(g, in);
  const auto rtlOut = sim::simulateRtl(ra.datapath, fsm, in);
  ASSERT_TRUE(ref.ok && rtlOut.ok) << rtlOut.error;
  for (const auto& [name, value] : ref.outputs)
    EXPECT_EQ(rtlOut.outputs.at(name), value) << name;
}

std::vector<PropertyCase> makeCases() {
  std::vector<PropertyCase> v;
  std::uint32_t seed = 1;
  for (int numOps : {12, 28, 48}) {
    for (int slack : {0, 2, 5}) {
      for (int branch : {0, 25}) {
        v.push_back({seed++, numOps, slack, /*mulPercent=*/25,
                     /*twoCyclePercent=*/20, branch});
      }
    }
  }
  return v;
}

INSTANTIATE_TEST_SUITE_P(Sweep, MfsProperty, ::testing::ValuesIn(makeCases()),
                         [](const ::testing::TestParamInfo<PropertyCase>& i) {
                           return "ops" + std::to_string(i.param.numOps) +
                                  "_slack" + std::to_string(i.param.slack) +
                                  "_br" + std::to_string(i.param.branchPercent) +
                                  "_s" + std::to_string(i.param.seed);
                         });

}  // namespace
}  // namespace mframe
