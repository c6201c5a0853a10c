#include "dfg/op.h"

#include <gtest/gtest.h>

namespace mframe::dfg {
namespace {

const OpKind kAllKinds[] = {
    OpKind::Input, OpKind::Const, OpKind::Add, OpKind::Sub, OpKind::Mul,
    OpKind::Div,   OpKind::Inc,   OpKind::Dec, OpKind::And, OpKind::Or,
    OpKind::Xor,   OpKind::Not,   OpKind::Shl, OpKind::Shr, OpKind::Eq,
    OpKind::Ne,    OpKind::Lt,    OpKind::Gt,  OpKind::Le,  OpKind::Ge,
    OpKind::LoopSuper};

TEST(Op, ArityMatchesKindClass) {
  EXPECT_EQ(arity(OpKind::Add), 2);
  EXPECT_EQ(arity(OpKind::Not), 1);
  EXPECT_EQ(arity(OpKind::Inc), 1);
  EXPECT_EQ(arity(OpKind::Input), 0);
  EXPECT_EQ(arity(OpKind::Const), 0);
}

TEST(Op, CommutativityIsOnlyForSymmetricOps) {
  EXPECT_TRUE(isCommutative(OpKind::Add));
  EXPECT_TRUE(isCommutative(OpKind::Mul));
  EXPECT_TRUE(isCommutative(OpKind::Eq));
  EXPECT_FALSE(isCommutative(OpKind::Sub));
  EXPECT_FALSE(isCommutative(OpKind::Lt));
  EXPECT_FALSE(isCommutative(OpKind::Shl));
}

TEST(Op, SchedulableExcludesInputAndConst) {
  EXPECT_FALSE(isSchedulable(OpKind::Input));
  EXPECT_FALSE(isSchedulable(OpKind::Const));
  EXPECT_TRUE(isSchedulable(OpKind::Add));
  EXPECT_TRUE(isSchedulable(OpKind::LoopSuper));
}

TEST(Op, AllRelationalsShareTheComparator) {
  for (OpKind k : {OpKind::Eq, OpKind::Ne, OpKind::Lt, OpKind::Gt, OpKind::Le,
                   OpKind::Ge})
    EXPECT_EQ(fuTypeOf(k), FuType::Comparator);
}

TEST(Op, DelaysReflectHardwareReality) {
  // Multiplication dwarfs addition; logic is cheapest. Only the ordering is
  // contractual — the chaining logic depends on it.
  EXPECT_GT(defaultDelayNs(OpKind::Mul), 2 * defaultDelayNs(OpKind::Add));
  EXPECT_LT(defaultDelayNs(OpKind::And), defaultDelayNs(OpKind::Add));
}

TEST(Op, NameAndSymbolParseBack) {
  for (OpKind k : kAllKinds) {
    OpKind fromName;
    ASSERT_TRUE(parseKind(kindName(k), fromName)) << kindName(k);
    EXPECT_EQ(fromName, k);
  }
  OpKind k;
  EXPECT_TRUE(parseKind("*", k));
  EXPECT_EQ(k, OpKind::Mul);
  EXPECT_FALSE(parseKind("bogus", k));
}

TEST(Op, EveryScheduleableKindHasAnFuType) {
  for (OpKind k : kAllKinds) {
    if (isSchedulable(k)) {
      EXPECT_FALSE(fuTypeName(fuTypeOf(k)).empty());
    }
  }
}

TEST(Op, FuTypeNamesAndSymbolsAreNonEmpty) {
  for (std::size_t t = 0; t < kNumFuTypes; ++t) {
    EXPECT_FALSE(fuTypeName(static_cast<FuType>(t)).empty());
    EXPECT_FALSE(fuTypeSymbol(static_cast<FuType>(t)).empty());
  }
}

}  // namespace
}  // namespace mframe::dfg
