// Tests for the RTL structure DOT export and the Verilog testbench
// generator.
#include <gtest/gtest.h>

#include <algorithm>

#include "celllib/ncr_like.h"
#include "core/mfsa.h"
#include "helpers.h"
#include "rtl/rtl_dot.h"
#include "rtl/testbench.h"
#include "sim/dfg_eval.h"
#include "workloads/benchmarks.h"

namespace mframe::rtl {
namespace {

core::MfsaResult synth(const dfg::Dfg& g, int cs) {
  static const celllib::CellLibrary lib = celllib::ncrLike();
  core::MfsaOptions o;
  o.constraints.timeSteps = cs;
  return core::runMfsa(g, lib, o);
}

TEST(RtlDot, DeclaresAlusAndRegisters) {
  const auto r = synth(test::smallDiamond(), 3);
  ASSERT_TRUE(r.feasible);
  const std::string dot = toDot(r.datapath);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("ALU0"), std::string::npos);
  EXPECT_NE(dot.find("reg0"), std::string::npos);
  EXPECT_NE(dot.find("rankdir=LR"), std::string::npos);
}

TEST(RtlDot, EdgesForEveryMuxSource) {
  const auto r = synth(workloads::diffeq(), 4);
  ASSERT_TRUE(r.feasible);
  const std::string dot = toDot(r.datapath);
  std::size_t edges = 0;
  for (std::size_t p = dot.find("->"); p != std::string::npos;
       p = dot.find("->", p + 1))
    ++edges;
  std::size_t expected = 0;
  for (const auto& w : r.datapath.leftPort) expected += w.sources.size();
  for (const auto& w : r.datapath.rightPort) expected += w.sources.size();
  // Registered signals; some lack a producing ALU.
  expected += static_cast<std::size_t>(
      std::count_if(r.datapath.regOfSignal.begin(),
                    r.datapath.regOfSignal.end(),
                    [](int reg) { return reg >= 0; }));
  EXPECT_GE(edges, expected - r.datapath.regs.count());
}

TEST(Testbench, SelfCheckingStructure) {
  const auto r = synth(test::smallDiamond(), 3);
  ASSERT_TRUE(r.feasible);
  const auto fsm = buildController(r.datapath);
  const std::map<std::string, sim::Word> in{
      {"a", 3}, {"b", 4}, {"c", 10}, {"d", 2}, {"lim", 100}};
  const std::string tb = toTestbench(r.datapath, fsm, in);
  EXPECT_NE(tb.find("module diamond_tb;"), std::string::npos);
  EXPECT_NE(tb.find("diamond dut("), std::string::npos);
  EXPECT_NE(tb.find("always #5 clk = ~clk;"), std::string::npos);
  EXPECT_NE(tb.find("$display(\"PASS\")"), std::string::npos);
  EXPECT_NE(tb.find("$finish"), std::string::npos);
}

TEST(Testbench, ExpectedValuesComeFromTheReference) {
  const auto r = synth(test::smallDiamond(), 3);
  ASSERT_TRUE(r.feasible);
  const auto fsm = buildController(r.datapath);
  const std::map<std::string, sim::Word> in{
      {"a", 3}, {"b", 4}, {"c", 10}, {"d", 2}, {"lim", 100}};
  const std::string tb = toTestbench(r.datapath, fsm, in);
  // y = (3+4)*(10-2) = 56; f = 56 < 100 = 1.
  EXPECT_NE(tb.find("16'd56"), std::string::npos);
  EXPECT_NE(tb.find("out_f !== 16'd1"), std::string::npos);
  // Inputs driven with the vector values.
  EXPECT_NE(tb.find("in_a = 16'd3"), std::string::npos);
}

TEST(Testbench, RunsEnoughClocks) {
  const auto r = synth(workloads::diffeq(), 4);
  ASSERT_TRUE(r.feasible);
  const auto fsm = buildController(r.datapath);
  const std::string tb = toTestbench(r.datapath, fsm, {});
  EXPECT_NE(tb.find("repeat (4) @(posedge clk);"), std::string::npos);
}

}  // namespace
}  // namespace mframe::rtl
