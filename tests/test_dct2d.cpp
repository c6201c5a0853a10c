// Case-study tests: the 4x4 2-D DCT (the repository's largest design)
// through every stage of the flow.
#include <gtest/gtest.h>

#include "analysis/sched_rules.h"
#include "celllib/ncr_like.h"
#include "core/mfs.h"
#include "core/mfsa.h"
#include "rtl/controller.h"
#include "rtl/verify.h"
#include "sched/report.h"
#include "sim/dfg_eval.h"
#include "sim/rtl_sim.h"
#include "util/strings.h"
#include "workloads/benchmarks.h"

namespace mframe {
namespace {

using dfg::FuType;
using dfg::OpKind;

TEST(Dct2d, OpMixAndStructure) {
  const dfg::Dfg g = workloads::dct2d4x4();
  EXPECT_FALSE(g.validate().has_value());
  std::map<OpKind, int> mix;
  for (dfg::NodeId id : g.operations()) ++mix[g.node(id).kind];
  EXPECT_EQ(mix[OpKind::Mul], 32);
  EXPECT_EQ(mix[OpKind::Add] + mix[OpKind::Sub], 64);
  EXPECT_EQ(g.operations().size(), 96u);
  EXPECT_EQ(g.outputs().size(), 16u);
}

TEST(Dct2d, CriticalPathAndSweep) {
  const dfg::Dfg g = workloads::dct2d4x4();
  sched::Constraints probe;
  const auto tf = computeTimeFrames(g, probe);
  ASSERT_TRUE(tf.has_value());
  EXPECT_EQ(tf->criticalSteps(), 6);  // two 3-deep DCT passes

  for (int cs : {6, 8, 12}) {
    core::MfsOptions o;
    o.constraints.timeSteps = cs;
    const auto r = core::runMfs(g, o);
    ASSERT_TRUE(r.feasible) << "T=" << cs << ": " << r.error;
    EXPECT_TRUE(analysis::lintSchedule(r.schedule, o.constraints).empty());
  }
  // FU demand falls with more time: 32 muls over 8 vs 14 steps.
  core::MfsOptions tight, loose;
  tight.constraints.timeSteps = 6;
  loose.constraints.timeSteps = 12;
  const auto rt = core::runMfs(g, tight);
  const auto rl = core::runMfs(g, loose);
  EXPECT_GT(rt.fuCount.at(FuType::Multiplier), rl.fuCount.at(FuType::Multiplier));
}

TEST(Dct2d, FullSynthesisAndEquivalence) {
  const dfg::Dfg g = workloads::dct2d4x4();
  static const celllib::CellLibrary lib = celllib::ncrLike();
  core::MfsaOptions o;
  o.constraints.timeSteps = 10;
  const auto r = core::runMfsa(g, lib, o);
  ASSERT_TRUE(r.feasible) << r.error;
  EXPECT_TRUE(rtl::verifyDatapath(r.datapath, o.constraints,
                                  rtl::DesignStyle::Unrestricted)
                  .empty());

  const auto fsm = rtl::buildController(r.datapath);
  std::map<std::string, sim::Word> in;
  for (int row = 0; row < 4; ++row)
    for (int col = 0; col < 4; ++col)
      in[mframe::util::format("p%d%d", row, col)] =
          static_cast<sim::Word>(16 * row + col + 1);
  const auto ref = sim::evalDfg(g, in);
  const auto rtlOut = sim::simulateRtl(r.datapath, fsm, in);
  ASSERT_TRUE(ref.ok && rtlOut.ok) << rtlOut.error;
  for (const auto& [name, value] : ref.outputs)
    EXPECT_EQ(rtlOut.outputs.at(name), value) << name;
}

TEST(Dct2d, DcCoefficientIsThePixelSum) {
  // q00 of a DCT-II butterfly bank is the plain sum of all 16 pixels
  // (unscaled in this construction): an independent functional check that
  // the graph really computes a 2-D transform shape.
  const dfg::Dfg g = workloads::dct2d4x4();
  std::map<std::string, sim::Word> in;
  sim::Word sum = 0;
  for (int row = 0; row < 4; ++row)
    for (int col = 0; col < 4; ++col) {
      const sim::Word v = static_cast<sim::Word>(3 * row + 5 * col + 2);
      in[mframe::util::format("p%d%d", row, col)] = v;
      sum += v;
    }
  const auto ref = sim::evalDfg(g, in);
  ASSERT_TRUE(ref.ok);
  EXPECT_EQ(ref.outputs.at("q00"), sum & 0xFFFF);
}

TEST(Dct2d, RelaxedConstraintRestoresBalance) {
  // At the 6-step critical path the row/column multiplies are frame-locked
  // to steps 2 and 5, forcing 16 multipliers. Four steps of slack let MFS
  // spread them: far fewer units, far higher utilization.
  const dfg::Dfg g = workloads::dct2d4x4();
  core::MfsOptions tight, loose;
  tight.constraints.timeSteps = 6;
  loose.constraints.timeSteps = 10;
  const auto rt = core::runMfs(g, tight);
  const auto rl = core::runMfs(g, loose);
  ASSERT_TRUE(rt.feasible && rl.feasible);
  EXPECT_EQ(rt.fuCount.at(FuType::Multiplier), 16);  // structural floor
  EXPECT_LE(rl.fuCount.at(FuType::Multiplier), 8);
  const auto repT = sched::analyzeSchedule(rt.schedule);
  const auto repL = sched::analyzeSchedule(rl.schedule);
  double utilT = 0, utilL = 0;
  for (const auto& u : repT.utilization)
    if (u.type == FuType::Multiplier) utilT = u.utilization;
  for (const auto& u : repL.utilization)
    if (u.type == FuType::Multiplier) utilL = u.utilization;
  EXPECT_GT(utilL, utilT);
}

}  // namespace
}  // namespace mframe
