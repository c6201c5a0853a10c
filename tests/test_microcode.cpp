#include "rtl/microcode.h"

#include <gtest/gtest.h>

#include "celllib/ncr_like.h"
#include "core/mfsa.h"
#include "helpers.h"
#include "util/strings.h"
#include "workloads/benchmarks.h"

namespace mframe::rtl {
namespace {

core::MfsaResult synth(const dfg::Dfg& g, int cs) {
  static const celllib::CellLibrary lib = celllib::ncrLike();
  core::MfsaOptions o;
  o.constraints.timeSteps = cs;
  return core::runMfsa(g, lib, o);
}

TEST(Microcode, OneWordPerStep) {
  const auto r = synth(workloads::diffeq(), 4);
  ASSERT_TRUE(r.feasible);
  const auto rom = buildMicrocode(r.datapath, buildController(r.datapath));
  EXPECT_EQ(rom.words, 4);
  EXPECT_EQ(rom.rows.size(), 4u);
  EXPECT_GT(rom.wordBits(), 0);
  EXPECT_EQ(rom.totalBits(), 4 * rom.wordBits());
}

TEST(Microcode, SingleOpAluNeedsNoOpcodeBits) {
  // A dedicated multiplier executes only Mul: its opcode field vanishes.
  const auto r = synth(workloads::fir8(), 9);
  ASSERT_TRUE(r.feasible);
  const auto rom = buildMicrocode(r.datapath, buildController(r.datapath));
  for (const auto& a : r.datapath.alus) {
    std::set<dfg::OpKind> kinds;
    for (dfg::NodeId op : a.ops) kinds.insert(r.datapath.graph->node(op).kind);
    const std::string fieldName = mframe::util::format("alu%d.op", a.index);
    const bool hasField =
        std::any_of(rom.fields.begin(), rom.fields.end(),
                    [&](const MicrocodeField& f) { return f.name() == fieldName; });
    EXPECT_EQ(hasField, kinds.size() > 1) << fieldName;
  }
}

TEST(Microcode, RegisterLoadBitsSetAtBirthSteps) {
  const auto r = synth(test::smallDiamond(), 3);
  ASSERT_TRUE(r.feasible);
  const auto fsm = buildController(r.datapath);
  const auto rom = buildMicrocode(r.datapath, fsm);
  for (const RegLoad& rl : fsm.regLoads) {
    if (rl.step < 1) continue;
    const std::string fieldName = mframe::util::format("R%d.load", rl.reg);
    auto it = std::find_if(rom.fields.begin(), rom.fields.end(),
                           [&](const MicrocodeField& f) { return f.name() == fieldName; });
    ASSERT_NE(it, rom.fields.end());
    const auto f = static_cast<std::size_t>(it - rom.fields.begin());
    EXPECT_EQ(rom.rows[static_cast<std::size_t>(rl.step - 1)][f], 1);
  }
}

TEST(Microcode, SelectFieldsWideEnough) {
  const auto r = synth(workloads::diffeq(), 4);
  ASSERT_TRUE(r.feasible);
  const auto rom = buildMicrocode(r.datapath, buildController(r.datapath));
  for (const auto& a : r.datapath.alus) {
    const auto ai = static_cast<std::size_t>(a.index);
    const std::size_t sources = r.datapath.leftPort[ai].sources.size();
    if (sources <= 1) continue;
    const std::string fieldName = mframe::util::format("alu%d.selL", a.index);
    auto it = std::find_if(rom.fields.begin(), rom.fields.end(),
                           [&](const MicrocodeField& f) { return f.name() == fieldName; });
    ASSERT_NE(it, rom.fields.end()) << fieldName;
    EXPECT_GE(1u << it->bits, sources);
  }
}

TEST(Microcode, FieldHandlesResolveByRole) {
  const auto r = synth(workloads::diffeq(), 4);
  ASSERT_TRUE(r.feasible);
  const auto rom = buildMicrocode(r.datapath, buildController(r.datapath));
  for (std::size_t f = 0; f < rom.fields.size(); ++f)
    EXPECT_EQ(rom.fieldOf(rom.fields[f].kind, rom.fields[f].unit),
              static_cast<int>(f))
        << rom.fields[f].name();
  EXPECT_EQ(rom.fieldOf(MicrocodeField::Kind::Opcode, 99), -1);
  EXPECT_EQ(rom.fieldOf(MicrocodeField::Kind::Next), -1);  // linear control
  const int r0 = rom.fieldOf(MicrocodeField::Kind::RegLoad, 0);
  ASSERT_GE(r0, 0);
  EXPECT_EQ(rom.fields[static_cast<std::size_t>(r0)].name(), "R0.load");
  EXPECT_EQ(rom.valueAt(1, r0), 1);
  EXPECT_EQ(rom.valueAt(0, r0), std::nullopt);
  EXPECT_EQ(rom.valueAt(5, r0), std::nullopt);
  EXPECT_EQ(rom.valueAt(1, -1), std::nullopt);
}

TEST(Microcode, AreaEstimateScalesWithBits) {
  const auto r = synth(workloads::diffeq(), 4);
  ASSERT_TRUE(r.feasible);
  const auto rom = buildMicrocode(r.datapath, buildController(r.datapath));
  EXPECT_DOUBLE_EQ(rom.areaEstimate(10.0), rom.totalBits() * 10.0);
}

TEST(Microcode, ToStringListsFieldsAndRows) {
  const auto r = synth(test::smallDiamond(), 3);
  ASSERT_TRUE(r.feasible);
  const std::string s =
      buildMicrocode(r.datapath, buildController(r.datapath)).toString();
  EXPECT_NE(s.find("microcode ROM"), std::string::npos);
  EXPECT_NE(s.find("step  1:"), std::string::npos);
}

}  // namespace
}  // namespace mframe::rtl
