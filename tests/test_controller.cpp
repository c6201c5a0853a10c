#include "rtl/controller.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "celllib/ncr_like.h"
#include "core/mfsa.h"
#include "helpers.h"
#include "workloads/benchmarks.h"

namespace mframe::rtl {
namespace {

core::MfsaResult synth(const dfg::Dfg& g, int cs) {
  static const celllib::CellLibrary lib = celllib::ncrLike();
  core::MfsaOptions o;
  o.constraints.timeSteps = cs;
  return core::runMfsa(g, lib, o);
}

TEST(Controller, OneMicroOpPerOperationAtItsStep) {
  const auto r = synth(workloads::diffeq(), 4);
  ASSERT_TRUE(r.feasible) << r.error;
  const ControllerFsm fsm = buildController(r.datapath);
  EXPECT_EQ(fsm.numSteps, 4);
  EXPECT_EQ(fsm.microOps.size(), r.datapath.graph->operations().size());
  for (const MicroOp& m : fsm.microOps) {
    EXPECT_EQ(m.step, r.datapath.schedule.stepOf(m.op));
    EXPECT_EQ(m.alu, r.datapath.aluIndexOf(m.op));
  }
}

TEST(Controller, MicroOpsSortedByStep) {
  const auto r = synth(workloads::tseng(), 4);
  ASSERT_TRUE(r.feasible);
  const ControllerFsm fsm = buildController(r.datapath);
  for (std::size_t i = 1; i < fsm.microOps.size(); ++i)
    EXPECT_LE(fsm.microOps[i - 1].step, fsm.microOps[i].step);
}

TEST(Controller, RegisterLoadsHappenAtBirthSteps) {
  const auto r = synth(test::smallDiamond(), 3);
  ASSERT_TRUE(r.feasible);
  const ControllerFsm fsm = buildController(r.datapath);
  const dfg::Dfg& g = *r.datapath.graph;
  for (const RegLoad& rl : fsm.regLoads) {
    const dfg::Node& n = g.node(rl.signal);
    if (n.kind == dfg::OpKind::Input) {
      EXPECT_EQ(rl.step, 0);
      EXPECT_EQ(rl.fromAlu, -1);
    } else {
      EXPECT_EQ(rl.step, r.datapath.schedule.stepOf(rl.signal) + n.cycles - 1);
      EXPECT_GE(rl.fromAlu, 0);
    }
  }
}

TEST(Controller, EveryStoredSignalHasALoad) {
  const auto r = synth(workloads::fir8(), 9);
  ASSERT_TRUE(r.feasible);
  const ControllerFsm fsm = buildController(r.datapath);
  const auto registered =
      std::count_if(r.datapath.regOfSignal.begin(),
                    r.datapath.regOfSignal.end(),
                    [](int reg) { return reg >= 0; });
  EXPECT_EQ(fsm.regLoads.size(), static_cast<std::size_t>(registered));
}

TEST(Controller, SelectsAreValidIndices) {
  const auto r = synth(workloads::diffeq(), 4);
  ASSERT_TRUE(r.feasible);
  const ControllerFsm fsm = buildController(r.datapath);
  for (const MicroOp& m : fsm.microOps) {
    const auto ai = static_cast<std::size_t>(m.alu);
    if (m.leftSelect >= 0) {
      EXPECT_LT(static_cast<std::size_t>(m.leftSelect),
                r.datapath.leftPort[ai].sources.size());
    }
    if (m.rightSelect >= 0) {
      EXPECT_LT(static_cast<std::size_t>(m.rightSelect),
                r.datapath.rightPort[ai].sources.size());
    }
  }
}

TEST(Controller, ToStringListsStates) {
  const auto r = synth(test::smallDiamond(), 3);
  ASSERT_TRUE(r.feasible);
  const ControllerFsm fsm = buildController(r.datapath);
  const std::string s = fsm.toString(*r.datapath.graph);
  EXPECT_NE(s.find("state"), std::string::npos);
  EXPECT_NE(s.find("ALU"), std::string::npos);
}

}  // namespace
}  // namespace mframe::rtl
