// Scale regression tests for the arena/CSR DFG core: deep chains and wide
// fan-outs that used to crash or go quadratic, counter linearity in N,
// job-count invariance, and the cold-graph concurrency hammer that pins
// down the eager-freeze fix for the old lazy successor cache.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "analysis/dataflow/engine.h"
#include "celllib/ncr_like.h"
#include "core/mfs.h"
#include "dfg/builder.h"
#include "dfg/transforms.h"
#include "explore/explore.h"
#include "helpers.h"
#include "sched/timeframes.h"
#include "trace/trace.h"
#include "util/strings.h"
#include "workloads/random_dfg.h"

namespace mframe {
namespace {

using dfg::NodeId;
using dfg::OpKind;

/// a0 = in + in; a_k = a_{k-1} + in — a dependency chain `ops` deep.
dfg::Dfg deepChain(int ops) {
  dfg::Builder b("chain");
  const NodeId in = b.input("in");
  NodeId prev = in;
  for (int i = 0; i < ops; ++i)
    prev = b.op(OpKind::Add, {prev, in}, util::format("a%d", i));
  b.output(prev, "out");
  return std::move(b).build();
}

/// One producer operation feeding `fans` consumers.
dfg::Dfg wideFanout(int fans) {
  dfg::Builder b("fanout");
  const NodeId x = b.input("x");
  const NodeId y = b.input("y");
  const NodeId hub = b.op(OpKind::Add, {x, y}, "hub");
  NodeId last = hub;
  for (int i = 0; i < fans; ++i)
    last = b.op(OpKind::Add, {hub, y}, util::format("f%d", i));
  b.output(last, "out");
  return std::move(b).build();
}

/// Longest-path depth domain: the dataflow engine's one-sweep DAG case.
struct DepthDomain {
  using Value = int;
  Value initial(const dfg::Node&) const { return 0; }
  Value transfer(const dfg::Node&, const std::vector<Value>& deps) const {
    int d = 0;
    for (int v : deps) d = std::max(d, v + 1);
    return d;
  }
  Value widen(const Value&, const Value& next) const { return next; }
};

std::uint64_t counter(trace::Counter c) { return trace::counterValue(c); }

using test::CounterScope;

// ---------------------------------------------------------------------------
// Deep chain: 10^5 ops. Building, topoOrder, timeframes, cone extraction and
// the dataflow worklist must all complete iteratively (the old recursive /
// lazy-cache paths crashed or went quadratic here) and do linear work.

TEST(Scale, DeepChainCoreAlgorithmsAreLinear) {
  const CounterScope counters;
  constexpr int kOps = 100000;
  const dfg::Dfg g = deepChain(kOps);
  ASSERT_TRUE(g.frozen());
  ASSERT_EQ(g.size(), static_cast<std::size_t>(kOps) + 1);

  const auto topo = g.topoOrder();
  ASSERT_TRUE(topo.has_value());
  EXPECT_EQ(topo->size(), g.size());

  sched::Constraints c;
  const auto tf = sched::computeTimeFrames(g, c);
  ASSERT_TRUE(tf.has_value());
  EXPECT_EQ(tf->criticalSteps(), kOps);
  // The chain leaves no mobility anywhere.
  EXPECT_EQ(tf->asap(g.findByName("a0")), 1);
  EXPECT_EQ(tf->alap(g.findByName("a0")), 1);
  const NodeId mid = g.findByName(util::format("a%d", kOps / 2));
  EXPECT_EQ(tf->asap(mid), kOps / 2 + 1);

  // Cone extraction around the middle of the chain: 2*hops + 1 members.
  const int hops = 16;
  const auto cut = dfg::extractCone(g, {mid}, hops);
  EXPECT_EQ(cut.coneOps, static_cast<std::size_t>(2 * hops + 1));
  EXPECT_FALSE(cut.cone.validate().has_value());

  // The worklist engine reaches the fixpoint in exactly one sweep: visits ==
  // nodes, and the counter advances by exactly that (linear, not quadratic).
  const std::uint64_t before = counter(trace::Counter::DataflowWorklistIterations);
  const auto fix = analysis::dataflow::solve(
      g, DepthDomain{}, analysis::dataflow::Direction::Forward);
  EXPECT_EQ(fix.visits, static_cast<int>(g.size()));
  EXPECT_EQ(fix.values.back(), kOps);
  EXPECT_EQ(counter(trace::Counter::DataflowWorklistIterations) - before,
            static_cast<std::uint64_t>(g.size()));
}

// ---------------------------------------------------------------------------
// Wide fan-out: a 10^4-consumer hub. succs()/opSuccs() spans, timeframes and
// cone extraction must handle the degree-10^4 node without blowup.

TEST(Scale, WideFanoutHubIsHandledLinearly) {
  constexpr int kFans = 10000;
  const dfg::Dfg g = wideFanout(kFans);
  const NodeId hub = g.findByName("hub");
  ASSERT_NE(hub, dfg::kNoNode);
  // hub feeds every fan op plus the chained `last` references: kFans edges.
  EXPECT_EQ(g.succs(hub).size(), static_cast<std::size_t>(kFans));
  EXPECT_EQ(g.opSuccs(hub).size(), static_cast<std::size_t>(kFans));

  const auto topo = g.topoOrder();
  ASSERT_TRUE(topo.has_value());

  sched::Constraints c;
  const auto tf = sched::computeTimeFrames(g, c);
  ASSERT_TRUE(tf.has_value());
  EXPECT_EQ(tf->criticalSteps(), 2);  // hub, then all fans in parallel

  // One hop from the hub reaches the hub plus every direct consumer.
  const auto cut = dfg::extractCone(g, {hub}, 1);
  EXPECT_EQ(cut.coneOps, static_cast<std::size_t>(kFans) + 1);

  const auto fix = analysis::dataflow::solve(
      g, DepthDomain{}, analysis::dataflow::Direction::Forward);
  EXPECT_EQ(fix.visits, static_cast<int>(g.size()));
}

// ---------------------------------------------------------------------------
// Counter linearity: doubling N at most doubles (within slack) the dataflow
// visits and the CSR edge count on the structured random workloads.

TEST(Scale, CountersGrowLinearlyInN) {
  const CounterScope counters;
  for (const auto topo : {workloads::DfgTopology::Conv,
                          workloads::DfgTopology::Lstm,
                          workloads::DfgTopology::Transformer}) {
    std::uint64_t visits[2];
    std::uint64_t edges[2];
    const int sizes[2] = {20000, 40000};
    for (int i = 0; i < 2; ++i) {
      workloads::RandomDfgOptions opt;
      opt.topology = topo;
      opt.numOps = sizes[i];
      opt.layerWidth = 64;
      opt.seed = 7;
      const std::uint64_t e0 = counter(trace::Counter::DfgCsrEdges);
      const dfg::Dfg g = workloads::randomDfg(opt);
      edges[i] = counter(trace::Counter::DfgCsrEdges) - e0;
      const std::uint64_t v0 =
          counter(trace::Counter::DataflowWorklistIterations);
      analysis::dataflow::solve(g, DepthDomain{},
                                analysis::dataflow::Direction::Forward);
      visits[i] = counter(trace::Counter::DataflowWorklistIterations) - v0;
    }
    // Linear growth: 2x the ops must stay within 2.2x the work. A quadratic
    // term would show up as a ratio near 4.
    EXPECT_LE(visits[1], visits[0] * 22 / 10) << "topology " << static_cast<int>(topo);
    EXPECT_GE(visits[1], visits[0]) << "topology " << static_cast<int>(topo);
    EXPECT_LE(edges[1], edges[0] * 22 / 10) << "topology " << static_cast<int>(topo);
  }
}

// ---------------------------------------------------------------------------
// Job-count invariance: the explorer sweeping the same design with 1 or 4
// workers must do identical per-design work — the same schedules, the same
// dfg.*, mfsa.* and liapunov.* counter deltas.

TEST(Scale, ExploreCountersAreJobCountInvariant) {
  const CounterScope counters;
  workloads::RandomDfgOptions opt;
  opt.topology = workloads::DfgTopology::Conv;
  opt.numOps = 600;
  opt.layerWidth = 16;
  opt.seed = 3;
  const dfg::Dfg g = workloads::randomDfg(opt);
  const auto lib = celllib::ncrLike();

  explore::SweepSpec spec = explore::SweepSpec::defaults();
  // One step budget is enough to exercise every worker; the full 4-step
  // axis only multiplies runtime.
  sched::Constraints probe;
  spec.steps = {sched::computeTimeFrames(g, probe)->criticalSteps() + 1};

  const auto deltas = [&](int jobs) {
    trace::resetCounters();
    const auto r = explore::explore(g, lib, spec, jobs);
    EXPECT_GT(r.feasibleCount, 0);
    return std::vector<std::uint64_t>{
        counter(trace::Counter::MfsaCandidates),
        counter(trace::Counter::MfsaCommits),
        counter(trace::Counter::MfsaRestarts),
        counter(trace::Counter::LiapunovUpdates),
        counter(trace::Counter::DfgFreezes),
        counter(trace::Counter::DfgCsrEdges),
    };
  };
  const auto serial = deltas(1);
  const auto parallel = deltas(4);
  EXPECT_EQ(serial, parallel);
}

// ---------------------------------------------------------------------------
// MFS frontier-vs-exhaustive equivalence: the dominance pruning is proved
// exact, so both modes must produce identical schedules on a graph large
// enough to exercise multicycle ops, restarts and both objective modes.

TEST(Scale, MfsFrontierMatchesExhaustive) {
  workloads::RandomDfgOptions wopt;
  wopt.topology = workloads::DfgTopology::Transformer;
  wopt.numOps = 800;
  wopt.layerWidth = 24;
  wopt.twoCyclePercent = 30;
  wopt.seed = 11;
  const dfg::Dfg g = workloads::randomDfg(wopt);

  for (const auto mode : {core::MfsLiapunov::Mode::TimeConstrained,
                          core::MfsLiapunov::Mode::ResourceConstrained}) {
    core::MfsOptions opt;
    opt.mode = mode;
    if (mode == core::MfsLiapunov::Mode::TimeConstrained) {
      sched::Constraints probe;
      opt.constraints.timeSteps =
          sched::computeTimeFrames(g, probe)->criticalSteps() + 2;
    } else {
      opt.constraints.fuLimit[dfg::FuType::Multiplier] = 6;
      opt.constraints.fuLimit[dfg::FuType::Adder] = 8;
    }
    opt.frameMode = core::MoveFrameMode::Exhaustive;
    const auto ex = core::runMfs(g, opt);
    opt.frameMode = core::MoveFrameMode::Frontier;
    const auto fr = core::runMfs(g, opt);

    ASSERT_TRUE(ex.feasible) << ex.error;
    ASSERT_TRUE(fr.feasible) << fr.error;
    EXPECT_EQ(ex.steps, fr.steps);
    EXPECT_EQ(ex.fuCount, fr.fuCount);
    EXPECT_EQ(ex.restarts, fr.restarts);
    for (NodeId id : g.operations()) {
      ASSERT_EQ(ex.schedule.stepOf(id), fr.schedule.stepOf(id)) << g.node(id).name;
      ASSERT_EQ(ex.schedule.columnOf(id), fr.schedule.columnOf(id)) << g.node(id).name;
    }
  }
}

// ---------------------------------------------------------------------------
// Concurrency: 8 threads hammer the adjacency spans of a freshly built
// (cold) shared graph. The old lazy succCache_/succValid_ made this a data
// race on first access; eager freeze makes it read-only. Run under TSan in
// CI (DfgConcurrency* is in the sanitizer filter).

TEST(DfgConcurrency, SuccsHammerEightThreadsColdGraph) {
  workloads::RandomDfgOptions opt;
  opt.topology = workloads::DfgTopology::Conv;
  opt.numOps = 20000;
  opt.layerWidth = 32;
  opt.seed = 5;
  const dfg::Dfg g = workloads::randomDfg(opt);  // cold: no accessor touched

  constexpr int kThreads = 8;
  std::atomic<std::uint64_t> agreed{0};
  std::vector<std::uint64_t> sums(kThreads, 0);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&g, &sums, t] {
      std::uint64_t sum = 0;
      for (NodeId id = 0; id < g.size(); ++id) {
        for (NodeId s : g.succs(id)) sum += s;
        for (NodeId s : g.opSuccs(id)) sum += s ^ 1u;
        for (NodeId p : g.opPreds(id)) sum += p ^ 2u;
      }
      sums[static_cast<std::size_t>(t)] = sum;
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(sums[0], sums[static_cast<std::size_t>(t)]);
    ++agreed;
  }
  EXPECT_GT(sums[0], 0u);
  EXPECT_EQ(agreed.load(), static_cast<std::uint64_t>(kThreads - 1));
}

}  // namespace
}  // namespace mframe
