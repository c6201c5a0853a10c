#include "celllib/cell_library.h"

#include <gtest/gtest.h>

#include "celllib/ncr_like.h"

namespace mframe::celllib {
namespace {

using dfg::FuType;

TEST(CellLibrary, AddModuleDedupesByName) {
  CellLibrary lib;
  Module m;
  m.name = "x";
  m.caps = {FuType::Adder};
  m.areaUm2 = 10;
  const ModuleId a = lib.addModule(m);
  const ModuleId b = lib.addModule(m);
  EXPECT_EQ(a, b);
  EXPECT_EQ(lib.modules().size(), 1u);
}

TEST(CellLibrary, CapableModulesSortedByArea) {
  CellLibrary lib;
  Module big;
  big.name = "big";
  big.caps = {FuType::Adder, FuType::Subtractor};
  big.areaUm2 = 50;
  Module small;
  small.name = "small";
  small.caps = {FuType::Adder};
  small.areaUm2 = 10;
  lib.addModule(big);
  lib.addModule(small);
  const auto c = lib.capableModules(FuType::Adder);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(lib.module(c[0]).name, "small");
  EXPECT_EQ(*lib.cheapestFor(FuType::Adder), c[0]);
  EXPECT_FALSE(lib.cheapestFor(FuType::Divider).has_value());
}

TEST(CellLibrary, MuxCostTableAndExtrapolation) {
  CellLibrary lib;
  lib.setMuxCosts({0, 0, 100, 150, 190});
  EXPECT_DOUBLE_EQ(lib.muxCost(0), 0.0);
  EXPECT_DOUBLE_EQ(lib.muxCost(1), 0.0);
  EXPECT_DOUBLE_EQ(lib.muxCost(2), 100.0);
  EXPECT_DOUBLE_EQ(lib.muxCost(4), 190.0);
  // Beyond the table: grow by the last increment (40).
  EXPECT_DOUBLE_EQ(lib.muxCost(5), 230.0);
  EXPECT_DOUBLE_EQ(lib.muxCost(6), 270.0);
}

TEST(CellLibrary, MaxMuxIncrementIsTwiceTheLargestStep) {
  CellLibrary lib;
  lib.setMuxCosts({0, 0, 100, 150, 190});
  // Largest step: 0 -> 100 when the second input appears.
  EXPECT_DOUBLE_EQ(lib.maxMuxIncrement(), 200.0);
}

TEST(CellLibrary, CoverageCheck) {
  CellLibrary lib;
  Module m;
  m.name = "add";
  m.caps = {FuType::Adder};
  m.areaUm2 = 1;
  lib.addModule(m);
  EXPECT_FALSE(lib.checkCoverage({FuType::Adder}).has_value());
  const auto err = lib.checkCoverage({FuType::Adder, FuType::Multiplier});
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("multiplier"), std::string::npos);
}

TEST(CellLibrary, SignatureUsesFuSymbols) {
  Module m;
  m.caps = {FuType::Adder, FuType::Subtractor};
  EXPECT_EQ(m.signature(), "(+-)");
}

TEST(NcrLike, CoversEveryFuTypeTheIrCanProduce) {
  const CellLibrary lib = ncrLike();
  std::set<FuType> all;
  for (std::size_t t = 0; t < dfg::kNumFuTypes; ++t) {
    const auto ft = static_cast<FuType>(t);
    if (ft == FuType::LoopUnit) continue;  // pseudo-type, never allocated
    all.insert(ft);
  }
  EXPECT_FALSE(lib.checkCoverage(all).has_value());
}

TEST(NcrLike, MultiplierDwarfsAdder) {
  const CellLibrary lib = ncrLike();
  const double mul = lib.module(*lib.cheapestFor(FuType::Multiplier)).areaUm2;
  const double add = lib.module(*lib.cheapestFor(FuType::Adder)).areaUm2;
  EXPECT_GT(mul, 4 * add);
}

TEST(NcrLike, MultifunctionCheaperThanParts) {
  // (+-) must undercut (+) + (-) or merging would never pay off.
  const CellLibrary lib = ncrLike();
  double addsub = 0, add = 0, sub = 0;
  for (const Module& m : lib.modules()) {
    if (m.name == "alu_addsub") addsub = m.areaUm2;
    if (m.name == "add16") add = m.areaUm2;
    if (m.name == "sub16") sub = m.areaUm2;
  }
  ASSERT_GT(addsub, 0);
  EXPECT_LT(addsub, add + sub);
  EXPECT_GT(addsub, std::max(add, sub));
}

TEST(NcrLike, PipelinedMultiplierOnlyWhenRequested) {
  auto count = [](const CellLibrary& lib) {
    int n = 0;
    for (const Module& m : lib.modules())
      if (m.stages > 1) ++n;
    return n;
  };
  EXPECT_EQ(count(ncrLike()), 0);
  EXPECT_EQ(count(ncrLike({.pipelinedMultiplier = true})), 1);
}

}  // namespace
}  // namespace mframe::celllib
