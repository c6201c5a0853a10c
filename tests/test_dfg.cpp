#include "dfg/dfg.h"

#include <gtest/gtest.h>

#include "dfg/builder.h"
#include "helpers.h"

namespace mframe::dfg {
namespace {

TEST(Dfg, PredsAndSuccsAreConsistent) {
  const Dfg g = test::smallDiamond();
  const NodeId y = g.findByName("y");
  ASSERT_NE(y, kNoNode);
  EXPECT_EQ(g.preds(y).size(), 2u);
  EXPECT_EQ(g.succs(y).size(), 1u);  // f consumes y
  for (NodeId p : g.preds(y)) {
    const auto& ss = g.succs(p);
    EXPECT_NE(std::find(ss.begin(), ss.end(), y), ss.end());
  }
}

TEST(Dfg, OpPredsFilterInputs) {
  const Dfg g = test::smallDiamond();
  const NodeId s = g.findByName("s");
  EXPECT_EQ(g.preds(s).size(), 2u);     // two Input nodes
  EXPECT_TRUE(g.opPreds(s).empty());    // no *operation* predecessors
  const NodeId y = g.findByName("y");
  EXPECT_EQ(g.opPreds(y).size(), 2u);
}

TEST(Dfg, OperationsExcludeInputsAndConsts) {
  const Dfg g = test::smallDiamond();
  EXPECT_EQ(g.operations().size(), 4u);
  EXPECT_EQ(g.size(), 9u);
}

TEST(Dfg, CountOfType) {
  const Dfg g = test::smallDiamond();
  EXPECT_EQ(g.countOfType(FuType::Adder), 1u);
  EXPECT_EQ(g.countOfType(FuType::Multiplier), 1u);
  EXPECT_EQ(g.countOfType(FuType::Divider), 0u);
}

TEST(Dfg, TopoOrderRespectsEdges) {
  const Dfg g = test::smallDiamond();
  const auto order = g.topoOrder();
  ASSERT_TRUE(order.has_value());
  std::vector<std::size_t> pos(g.size());
  for (std::size_t i = 0; i < order->size(); ++i) pos[(*order)[i]] = i;
  for (const Node& n : g.nodes())
    for (NodeId in : n.inputs) EXPECT_LT(pos[in], pos[n.id]);
}

TEST(Dfg, ValidateAcceptsWellFormed) {
  EXPECT_FALSE(test::smallDiamond().validate().has_value());
  EXPECT_FALSE(test::branchy().validate().has_value());
}

TEST(Dfg, ValidateRejectsDuplicateNames) {
  Dfg g("bad");
  Node a;
  a.kind = OpKind::Input;
  a.name = "x";
  g.addNode(a);
  Node b;
  b.kind = OpKind::Input;
  b.name = "x";
  g.addNode(b);
  ASSERT_TRUE(g.validate().has_value());
  EXPECT_NE(g.validate()->find("duplicate"), std::string::npos);
}

TEST(Dfg, ValidateRejectsWrongArity) {
  Dfg g("bad");
  Node x;
  x.kind = OpKind::Input;
  x.name = "x";
  const NodeId xi = g.addNode(x);
  Node n;
  n.kind = OpKind::Add;
  n.name = "a";
  n.inputs = {xi};  // Add needs 2
  g.addNode(n);
  ASSERT_TRUE(g.validate().has_value());
  EXPECT_NE(g.validate()->find("expects 2 inputs"), std::string::npos);
}

TEST(Dfg, ValidateRejectsForwardReferences) {
  Dfg g("bad");
  Node n;
  n.kind = OpKind::Not;
  n.name = "n";
  n.inputs = {1};  // references a node added later
  g.addNode(n);
  Node x;
  x.kind = OpKind::Input;
  x.name = "x";
  g.addNode(x);
  EXPECT_TRUE(g.validate().has_value());
}

TEST(Dfg, ValidateRejectsNonPositiveCycles) {
  Dfg g("bad");
  Node x;
  x.kind = OpKind::Input;
  x.name = "x";
  const NodeId xi = g.addNode(x);
  Node n;
  n.kind = OpKind::Not;
  n.name = "n";
  n.inputs = {xi};
  n.cycles = 0;
  g.addNode(n);
  EXPECT_TRUE(g.validate().has_value());
}

TEST(Dfg, ValidateRejectsMalformedBranchPath) {
  Dfg g("bad");
  Node x;
  x.kind = OpKind::Input;
  x.name = "x";
  const NodeId xi = g.addNode(x);
  Node n;
  n.kind = OpKind::Not;
  n.name = "n";
  n.inputs = {xi};
  n.branchPath = "c1";  // odd component count
  g.addNode(n);
  EXPECT_TRUE(g.validate().has_value());
}

TEST(Dfg, FindByName) {
  const Dfg g = test::smallDiamond();
  EXPECT_NE(g.findByName("y"), kNoNode);
  EXPECT_EQ(g.findByName("zzz"), kNoNode);
}

struct MutexCase {
  const char* a;
  const char* b;
  bool exclusive;
};

// Names each case by its paths. gtest's default dump of the struct shows the
// string addresses, so the case names would change from one build to the next.
void PrintTo(const MutexCase& c, std::ostream* os) {
  const auto path = [](const char* p) { return *p ? p : "unconditional"; };
  *os << path(c.a) << " vs " << path(c.b)
      << (c.exclusive ? " exclusive" : " not exclusive");
}

class BranchPathTest : public ::testing::TestWithParam<MutexCase> {};

TEST_P(BranchPathTest, PathsMutuallyExclusive) {
  const auto& c = GetParam();
  EXPECT_EQ(pathsMutuallyExclusive(c.a, c.b), c.exclusive)
      << c.a << " vs " << c.b;
  EXPECT_EQ(pathsMutuallyExclusive(c.b, c.a), c.exclusive) << "symmetry";
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BranchPathTest,
    ::testing::Values(
        MutexCase{"", "", false},                   // both unconditional
        MutexCase{"", "c1.t", false},               // one unconditional
        MutexCase{"c1.t", "c1.e", true},            // sibling arms
        MutexCase{"c1.t", "c1.t", false},           // same arm
        MutexCase{"c1.t", "c2.t", false},           // unrelated conditionals
        MutexCase{"c1.t", "c1.t.c2.e", false},      // nested inside same arm
        MutexCase{"c1.t.c2.t", "c1.t.c2.e", true},  // nested siblings
        MutexCase{"c1.t.c2.t", "c1.e.c9.x", true},  // diverge at outer arm
        MutexCase{"c1.t.c2.t", "c1.t.c3.e", false}  // diverge at cond id
        ));

TEST(Dfg, MutuallyExclusiveUsesNodePaths) {
  const Dfg g = test::branchy();
  const NodeId t1 = g.findByName("t1");
  const NodeId e1 = g.findByName("e1");
  const NodeId j = g.findByName("j");
  EXPECT_TRUE(g.mutuallyExclusive(t1, e1));
  EXPECT_FALSE(g.mutuallyExclusive(t1, j));
}

TEST(Dfg, OutputsRecorded) {
  const Dfg g = test::smallDiamond();
  ASSERT_EQ(g.outputs().size(), 2u);
  EXPECT_EQ(g.outputs()[0].second, "y");
}

}  // namespace
}  // namespace mframe::dfg
