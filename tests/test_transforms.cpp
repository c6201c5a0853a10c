#include "dfg/transforms.h"

#include <gtest/gtest.h>

#include "dfg/builder.h"
#include "helpers.h"

namespace mframe::dfg {
namespace {

TEST(MergeSharedBranchOps, MergesIdenticalSiblingOps) {
  Dfg g = test::branchy();  // t1 and e1 are identical adds in sibling arms
  ASSERT_EQ(g.operations().size(), 3u);
  const std::size_t removed = mergeSharedBranchOps(g);
  EXPECT_EQ(removed, 1u);
  EXPECT_EQ(g.operations().size(), 2u);
  EXPECT_FALSE(g.validate().has_value());
}

TEST(MergeSharedBranchOps, SurvivorHoistedToCommonPrefix) {
  Dfg g = test::branchy();
  mergeSharedBranchOps(g);
  // The surviving add is unconditional (common prefix of c1.t and c1.e).
  for (NodeId id : g.operations()) {
    if (g.node(id).kind == OpKind::Add) {
      EXPECT_EQ(g.node(id).branchPath, "");
    }
  }
}

TEST(MergeSharedBranchOps, ConsumersRewired) {
  Dfg g = test::branchy();
  mergeSharedBranchOps(g);
  const NodeId j = g.findByName("j");
  ASSERT_NE(j, kNoNode);
  // Both operands of j now reference the single surviving add.
  EXPECT_EQ(g.node(j).inputs[0], g.node(j).inputs[1]);
}

TEST(MergeSharedBranchOps, HonorsCommutativity) {
  Builder b("comm");
  const auto x = b.input("x");
  const auto y = b.input("y");
  b.pushBranch("c1", "t");
  const auto t = b.add(x, y, "t");
  b.popBranch();
  b.pushBranch("c1", "e");
  const auto e = b.add(y, x, "e");  // swapped operands, still the same add
  b.popBranch();
  b.output(t, "ot");
  b.output(e, "oe");
  Dfg g = std::move(b).build();
  EXPECT_EQ(mergeSharedBranchOps(g), 1u);
}

TEST(MergeSharedBranchOps, DoesNotMergeNonExclusive) {
  Builder b("same-arm");
  const auto x = b.input("x");
  const auto y = b.input("y");
  b.pushBranch("c1", "t");
  b.add(x, y, "t1");
  b.add(x, y, "t2");  // same arm: both execute, keep both
  b.popBranch();
  Dfg g = std::move(b).build();
  EXPECT_EQ(mergeSharedBranchOps(g), 0u);
}

TEST(MergeSharedBranchOps, DoesNotMergeDifferentOperands) {
  Builder b("diff");
  const auto x = b.input("x");
  const auto y = b.input("y");
  const auto z = b.input("z");
  b.pushBranch("c1", "t");
  b.add(x, y, "t1");
  b.popBranch();
  b.pushBranch("c1", "e");
  b.add(x, z, "e1");
  b.popBranch();
  Dfg g = std::move(b).build();
  EXPECT_EQ(mergeSharedBranchOps(g), 0u);
}

TEST(MergeSharedBranchOps, CascadesToFixpoint) {
  // Two levels: once the leaf adds merge, the dependent subs become
  // identical and merge as well.
  Builder b("cascade");
  const auto x = b.input("x");
  const auto y = b.input("y");
  b.pushBranch("c1", "t");
  const auto t1 = b.add(x, y, "t1");
  b.sub(t1, x, "t2");
  b.popBranch();
  b.pushBranch("c1", "e");
  const auto e1 = b.add(x, y, "e1");
  b.sub(e1, x, "e2");
  b.popBranch();
  Dfg g = std::move(b).build();
  EXPECT_EQ(mergeSharedBranchOps(g), 2u);
  EXPECT_EQ(g.operations().size(), 2u);
}

TEST(LoopBookkeeping, AddsIncrementAndComparison) {
  Dfg body = test::addChain(2);
  const std::size_t before = body.operations().size();
  const NodeId cmp = addLoopBookkeeping(body, "i", 10);
  EXPECT_EQ(body.operations().size(), before + 2);
  EXPECT_EQ(body.node(cmp).kind, OpKind::Lt);
  EXPECT_FALSE(body.validate().has_value());
  // The comparison consumes the incremented counter against the bound.
  const NodeId inc = body.findByName("i_next");
  ASSERT_NE(inc, kNoNode);
  EXPECT_EQ(body.node(cmp).inputs[0], inc);
}

TEST(LoopBookkeeping, ReusesExistingCounterSignal) {
  Dfg body = test::addChain(1);
  const std::size_t before = body.size();
  addLoopBookkeeping(body, "x0", 4);  // x0 is already an input
  EXPECT_EQ(body.size(), before + 3);  // bound, inc, cmp — no new input
}

TEST(FoldLoopNest, InnermostFirstAndCyclesAssigned) {
  // Outer body has a LoopSuper placeholder named like the inner body.
  LoopNest inner;
  inner.body = test::addChain(3);
  inner.body.setName("inner");
  inner.localTimeConstraint = 3;

  LoopNest outer;
  {
    Dfg g("outer");
    Node in;
    in.kind = OpKind::Input;
    in.name = "x";
    const NodeId xi = g.addNode(in);
    Node sp;
    sp.kind = OpKind::LoopSuper;
    sp.name = "inner";
    sp.inputs = {xi};
    const NodeId spId = g.addNode(sp);
    Node post;
    post.kind = OpKind::Not;
    post.name = "post";
    post.inputs = {spId};
    g.addNode(post);
    outer.body = std::move(g);
  }
  outer.localTimeConstraint = 6;
  outer.children.push_back(std::move(inner));

  int calls = 0;
  const Dfg folded = foldLoopNest(outer, [&](const Dfg& body, int cs) {
    ++calls;
    EXPECT_EQ(body.name(), "inner");
    EXPECT_EQ(cs, 3);
    return 3;
  });
  EXPECT_EQ(calls, 1);
  const NodeId sp = folded.findByName("inner");
  ASSERT_NE(sp, kNoNode);
  EXPECT_EQ(folded.node(sp).cycles, 3);
}

TEST(FoldLoopNest, RejectsSchedulerOverrun) {
  LoopNest inner;
  inner.body = test::addChain(2);
  inner.body.setName("inner");
  inner.localTimeConstraint = 2;
  LoopNest outer;
  {
    Dfg g("outer");
    Node sp;
    sp.kind = OpKind::LoopSuper;
    sp.name = "inner";
    g.addNode(sp);
    outer.body = std::move(g);
  }
  outer.children.push_back(std::move(inner));
  EXPECT_THROW(
      foldLoopNest(outer, [](const Dfg&, int) { return 5; }),  // > constraint
      std::runtime_error);
}

TEST(FoldLoopNest, RejectsMissingPlaceholder) {
  LoopNest inner;
  inner.body = test::addChain(1);
  inner.body.setName("nameless");
  inner.localTimeConstraint = 2;
  LoopNest outer;
  outer.body = test::addChain(1);  // no LoopSuper node at all
  outer.children.push_back(std::move(inner));
  EXPECT_THROW(foldLoopNest(outer, [](const Dfg&, int) { return 1; }),
               std::runtime_error);
}

}  // namespace
}  // namespace mframe::dfg
