#include "alloc/interconnect.h"

#include <gtest/gtest.h>

#include <set>

#include "alloc/lifetimes.h"
#include "alloc/regalloc.h"
#include "dfg/builder.h"
#include "helpers.h"

namespace mframe::alloc {
namespace {

using dfg::NodeId;

/// The producer -> register table rtl::buildDatapath derives from a
/// register allocation: NodeId-indexed, -1 for unstored values.
std::vector<int> registerTable(const dfg::Dfg& g,
                               const std::vector<Lifetime>& lifetimes,
                               const RegAllocation& regs) {
  std::vector<int> regOf(g.size(), -1);
  for (std::size_t r = 0; r < regs.registers.size(); ++r)
    for (std::size_t i : regs.registers[r])
      regOf[lifetimes[i].producer] = static_cast<int>(r);
  return regOf;
}

struct Fixture {
  dfg::Dfg g;
  sched::Schedule s;
  std::vector<Lifetime> lifetimes;
  RegAllocation regs;
  std::vector<int> regOf;
  std::vector<int> aluOf;

  Fixture() : g(test::smallDiamond()), s(g) {
    s.setNumSteps(3);
    s.place(g.findByName("s"), 1, 1);
    s.place(g.findByName("t"), 1, 1);
    s.place(g.findByName("y"), 2, 1);
    s.place(g.findByName("f"), 3, 1);
    lifetimes = computeLifetimes(g, s);
    regs = allocateRegisters(lifetimes);
    regOf = registerTable(g, lifetimes, regs);
    aluOf.assign(g.size(), -1);
    aluOf[g.findByName("s")] = 0;
    aluOf[g.findByName("t")] = 1;
    aluOf[g.findByName("y")] = 2;
    aluOf[g.findByName("f")] = 3;
  }
};

TEST(Interconnect, RegisteredSignalResolvesToItsRegister) {
  Fixture fx;
  const SourceResolver r(fx.g, fx.s, fx.regOf, fx.aluOf);
  const Source src =
      r.resolve(fx.g.findByName("y"), fx.g.findByName("s"));  // s born 1, read 2
  EXPECT_EQ(src.kind, Source::Kind::Register);
}

TEST(Interconnect, ChainedReadResolvesToAluOutput) {
  dfg::Builder b("chain");
  const auto x = b.input("x");
  const auto yy = b.input("y");
  const auto c1 = b.add(x, yy, "c1");
  const auto c2 = b.add(c1, yy, "c2");
  b.output(c2, "o");
  const dfg::Dfg g = std::move(b).build();
  sched::Schedule s(g);
  s.setNumSteps(1);
  s.place(c1, 1, 1);
  s.place(c2, 1, 2);  // same step: chained
  const auto lts = computeLifetimes(g, s);
  const auto regs = allocateRegisters(lts);
  std::vector<int> aluOf(g.size(), -1);
  aluOf[c1] = 0;
  aluOf[c2] = 1;
  const std::vector<int> regOf = registerTable(g, lts, regs);
  const SourceResolver r(g, s, regOf, aluOf);
  const Source src = r.resolve(c2, c1);
  EXPECT_EQ(src.kind, Source::Kind::AluOut);
  EXPECT_EQ(src.index, 0);
}

TEST(Interconnect, ConstantsAreHardwired) {
  dfg::Builder b("k");
  const auto x = b.input("x");
  const auto k = b.constant(5, "k5");
  const auto a = b.add(x, k, "a");
  b.output(a, "o");
  const dfg::Dfg g = std::move(b).build();
  sched::Schedule s(g);
  s.setNumSteps(1);
  s.place(a, 1, 1);
  const auto lts = computeLifetimes(g, s);
  const auto regs = allocateRegisters(lts);
  std::vector<int> aluOf(g.size(), -1);
  aluOf[a] = 0;
  const std::vector<int> regOf = registerTable(g, lts, regs);
  const SourceResolver r(g, s, regOf, aluOf);
  const Source src = r.resolve(a, k);
  EXPECT_EQ(src.kind, Source::Kind::Constant);
  EXPECT_EQ(src.toString(g), "const:5");
}

TEST(Interconnect, InputsComeFromTheirRegisters) {
  Fixture fx;
  const SourceResolver r(fx.g, fx.s, fx.regOf, fx.aluOf);
  const Source src = r.resolve(fx.g.findByName("s"), fx.g.findByName("a"));
  EXPECT_EQ(src.kind, Source::Kind::Register);
}

TEST(Interconnect, WirePortDeduplicatesSharedSources) {
  // Two signals stored in the same register arrive on one wire
  // (Section 5.7 line sharing).
  Fixture fx;
  const SourceResolver r(fx.g, fx.s, fx.regOf, fx.aluOf);
  const NodeId y = fx.g.findByName("y");
  const NodeId f = fx.g.findByName("f");
  const NodeId sSig = fx.g.findByName("s");
  const NodeId tSig = fx.g.findByName("t");
  // The number of wires equals the number of *distinct* physical sources —
  // signals that share a register over time share a wire (Section 5.7).
  std::set<Source> distinct{r.resolve(y, sSig), r.resolve(y, tSig),
                            r.resolve(f, fx.g.findByName("y"))};
  const auto w = wirePort(r, {{y, sSig}, {y, tSig}, {f, fx.g.findByName("y")}});
  EXPECT_EQ(w.sources.size(), distinct.size());
  EXPECT_LT(w.sources.size(), 3u);  // s=(1,2] and y=(2,4] share a register
  EXPECT_EQ(w.selects.size(), 3u);
  for (const PortWiring::Select& e : w.selects)
    EXPECT_LT(static_cast<std::size_t>(e.select), w.sources.size());
}

TEST(Interconnect, SourceOrderingIsFirstUse) {
  Fixture fx;
  const SourceResolver r(fx.g, fx.s, fx.regOf, fx.aluOf);
  const NodeId y = fx.g.findByName("y");
  const NodeId sSig = fx.g.findByName("s");
  const auto w = wirePort(r, {{y, sSig}});
  ASSERT_EQ(w.sources.size(), 1u);
  EXPECT_EQ(w.selectFor(y, sSig), 0);
}

TEST(Interconnect, SelectForMissesAbsentReads) {
  // x * x reads one signal on both ports; each port finds its own read and
  // no other.
  dfg::Builder b("sq");
  const auto x = b.input("x");
  const auto y = b.input("y");
  const auto sq = b.mul(x, x, "sq");
  const auto a = b.add(sq, y, "a");
  b.output(a, "o");
  const dfg::Dfg g = std::move(b).build();
  sched::Schedule s(g);
  s.setNumSteps(2);
  s.place(sq, 1, 1);
  s.place(a, 2, 1);
  const auto lts = computeLifetimes(g, s);
  const auto regs = allocateRegisters(lts);
  std::vector<int> aluOf(g.size(), -1);
  aluOf[sq] = 0;
  aluOf[a] = 1;
  const std::vector<int> regOf = registerTable(g, lts, regs);
  const SourceResolver r(g, s, regOf, aluOf);
  const PortWiring left = wirePort(r, {{sq, x}, {a, sq}});
  const PortWiring right = wirePort(r, {{sq, x}, {a, y}});
  EXPECT_GE(left.selectFor(sq, x), 0);
  EXPECT_GE(right.selectFor(sq, x), 0);
  ASSERT_NE(left.sourceFor(sq, x), nullptr);
  ASSERT_NE(right.sourceFor(sq, x), nullptr);
  EXPECT_EQ(*left.sourceFor(sq, x), *right.sourceFor(sq, x));
  EXPECT_GE(left.selectFor(a, sq), 0);
  EXPECT_GE(right.selectFor(a, y), 0);
  // Reads the port never carries: a swapped pair, a read of the other
  // port, an unknown reader and ids past the graph.
  EXPECT_EQ(left.selectFor(x, sq), -1);
  EXPECT_EQ(left.sourceFor(x, sq), nullptr);
  EXPECT_EQ(left.selectFor(a, y), -1);
  EXPECT_EQ(left.sourceFor(a, y), nullptr);
  EXPECT_EQ(right.selectFor(a, sq), -1);
  EXPECT_EQ(right.sourceFor(a, sq), nullptr);
  EXPECT_EQ(left.selectFor(y, x), -1);
  EXPECT_EQ(left.selectFor(dfg::kNoNode, x), -1);
  EXPECT_EQ(left.sourceFor(sq, dfg::kNoNode), nullptr);
  EXPECT_EQ(right.selectFor(static_cast<NodeId>(g.size()), y), -1);
}

}  // namespace
}  // namespace mframe::alloc
