// Verifier mutation tests: corrupt known-good schedules and datapaths in
// every way the verifiers claim to catch, and assert each corruption is in
// fact flagged. This guards the guards — a verifier that silently accepts
// broken results would defeat the whole test strategy.
#include <gtest/gtest.h>

#include <random>
#include <string_view>

#include "analysis/sched_rules.h"
#include "celllib/ncr_like.h"
#include "core/mfs.h"
#include "core/mfsa.h"
#include "helpers.h"
#include "rtl/verify.h"
#include "workloads/benchmarks.h"
#include "workloads/random_dfg.h"

namespace mframe {
namespace {

using dfg::NodeId;

struct GoodSchedule {
  dfg::Dfg graph;
  sched::Constraints constraints;
  sched::Schedule schedule;
};

GoodSchedule makeGood(std::uint32_t seed) {
  workloads::RandomDfgOptions o;
  o.seed = seed;
  o.numOps = 20;
  o.twoCyclePercent = 25;
  GoodSchedule gs{workloads::randomDfg(o), {}, {}};
  sched::Constraints probe;
  const auto tf = computeTimeFrames(gs.graph, probe);
  gs.constraints.timeSteps = tf->criticalSteps() + 2;
  core::MfsOptions mo;
  mo.constraints = gs.constraints;
  const auto r = core::runMfs(gs.graph, mo);
  EXPECT_TRUE(r.feasible);
  gs.schedule = r.schedule;
  return gs;
}

/// Whether some verifier message names `what`.
bool mentions(const std::vector<std::string>& messages, std::string_view what) {
  for (const std::string& m : messages)
    if (m.find(what) != std::string::npos) return true;
  return false;
}

class MutationSeeds : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MutationSeeds, StepCorruptionIsCaught) {
  GoodSchedule gs = makeGood(GetParam());
  ASSERT_TRUE(analysis::lintSchedule(gs.schedule, gs.constraints).empty());
  std::mt19937 rng(GetParam());
  const auto ops = gs.schedule.graph().operations();

  int caught = 0, mutations = 0;
  for (int trial = 0; trial < 20; ++trial) {
    sched::Schedule s = gs.schedule;
    const NodeId victim = ops[rng() % ops.size()];
    const int oldStep = s.stepOf(victim);
    const int newStep =
        1 + static_cast<int>(rng() % static_cast<unsigned>(s.numSteps()));
    if (newStep == oldStep) continue;
    s.place(victim, newStep, s.columnOf(victim));
    ++mutations;
    if (!analysis::lintSchedule(s, gs.constraints).empty()) ++caught;
  }
  // Moving an op to a random different step almost always breaks precedence
  // or occupancy; a verifier catching none of them is broken.
  ASSERT_GT(mutations, 0);
  EXPECT_GT(caught, 0);
}

TEST_P(MutationSeeds, ColumnCollisionIsCaught) {
  GoodSchedule gs = makeGood(GetParam() + 50);
  const auto ops = gs.schedule.graph().operations();
  const dfg::Dfg& g = gs.schedule.graph();
  // Move an op onto the (step, column) cell of another op of its type.
  for (NodeId a : ops) {
    for (NodeId b : ops) {
      if (a == b || g.mutuallyExclusive(a, b)) continue;
      if (dfg::fuTypeOf(g.node(a).kind) != dfg::fuTypeOf(g.node(b).kind))
        continue;
      sched::Schedule s = gs.schedule;
      s.place(b, s.stepOf(a), s.columnOf(a));
      EXPECT_TRUE(mentions(
          analysis::lintSchedule(s, gs.constraints).messages(), "occupancy"));
      return;
    }
  }
  FAIL() << "a 20-op random design has two ops of one FU type";
}

TEST_P(MutationSeeds, DroppedOpIsCaught) {
  GoodSchedule gs = makeGood(GetParam() + 100);
  std::mt19937 rng(GetParam());
  const auto ops = gs.schedule.graph().operations();
  sched::Schedule s = gs.schedule;
  s.unplace(ops[rng() % ops.size()]);
  const auto v = analysis::lintSchedule(s, gs.constraints).messages();
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v.front().find("not scheduled"), std::string::npos);
}

TEST_P(MutationSeeds, TightenedResourceLimitIsCaught) {
  GoodSchedule gs = makeGood(GetParam() + 150);
  const auto fu = gs.schedule.fuCount();
  if (fu.empty()) FAIL() << "a 20-op random design uses some FU type";
  // One unit fewer than the schedule uses, down to 0 for a single unit.
  const auto& [type, used] = *fu.begin();
  sched::Constraints c = gs.constraints;
  c.fuLimit[type] = used - 1;
  EXPECT_TRUE(mentions(analysis::lintSchedule(gs.schedule, c).messages(),
                       "resource limit"));
}

TEST_P(MutationSeeds, DatapathRebindIsCaught) {
  workloads::RandomDfgOptions o;
  o.seed = GetParam() + 200;
  o.numOps = 18;
  const dfg::Dfg g = workloads::randomDfg(o);
  static const celllib::CellLibrary lib = celllib::ncrLike();
  sched::Constraints probe;
  const auto tf = computeTimeFrames(g, probe);
  core::MfsaOptions ao;
  ao.constraints.timeSteps = tf->criticalSteps() + 2;
  const auto r = core::runMfsa(g, lib, ao);
  ASSERT_TRUE(r.feasible);
  ASSERT_TRUE(rtl::verifyDatapath(r.datapath, ao.constraints,
                                  rtl::DesignStyle::Unrestricted)
                  .empty());

  // Steal an op from one ALU into another that cannot perform it.
  rtl::Datapath broken = r.datapath;
  for (auto& victim : broken.alus) {
    for (NodeId op : victim.ops) {
      const dfg::FuType t = dfg::fuTypeOf(g.node(op).kind);
      for (auto& thief : broken.alus) {
        if (thief.index == victim.index) continue;
        if (broken.lib->module(thief.module).supports(t)) continue;
        victim.ops.erase(
            std::remove(victim.ops.begin(), victim.ops.end(), op),
            victim.ops.end());
        thief.ops.push_back(op);
        broken.aluOf[op] = thief.index;
        EXPECT_FALSE(rtl::verifyDatapath(broken, ao.constraints,
                                         rtl::DesignStyle::Unrestricted)
                         .empty());
        return;
      }
    }
  }
  GTEST_SKIP() << "every ALU supports every used type in this seed";
}

TEST_P(MutationSeeds, RegisterOverlapIsCaught) {
  static const celllib::CellLibrary lib = celllib::ncrLike();
  core::MfsaOptions ao;
  ao.constraints.timeSteps = 4;
  const auto r = core::runMfsa(workloads::diffeq(), lib, ao);
  ASSERT_TRUE(r.feasible);
  rtl::Datapath broken = r.datapath;
  if (broken.regs.count() < 2) GTEST_SKIP();
  // Merge two registers: the combined lifetimes overlap somewhere.
  auto& regs = broken.regs.registers;
  for (std::size_t i : regs[1]) regs[0].push_back(i);
  regs.erase(regs.begin() + 1);
  EXPECT_TRUE(mentions(rtl::verifyDatapath(broken, ao.constraints,
                                           rtl::DesignStyle::Unrestricted),
                       "overlapping"));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationSeeds,
                         ::testing::Range<std::uint32_t>(1, 9));

}  // namespace
}  // namespace mframe
