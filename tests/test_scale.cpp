// Scale regression tests for the arena/CSR DFG core: deep chains and wide
// fan-outs that used to crash or go quadratic, counter linearity in N,
// job-count invariance, and the cold-graph concurrency hammer that pins
// down the eager-freeze fix for the old lazy successor cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analyze.h"
#include "analysis/dataflow/engine.h"
#include "analysis/rtl_rules.h"
#include "analysis/sched_rules.h"
#include "analysis/timing/sta.h"
#include "analysis/validate/validate.h"
#include "celllib/ncr_like.h"
#include "core/frames.h"
#include "core/grid.h"
#include "core/mfs.h"
#include "core/mfsa.h"
#include "dfg/builder.h"
#include "dfg/parser.h"
#include "dfg/transforms.h"
#include "explore/explore.h"
#include "helpers.h"
#include "sched/timeframes.h"
#include "trace/trace.h"
#include "util/strings.h"
#include "workloads/benchmarks.h"
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
  Value transfer(const dfg::Node&, const std::vector<Value>& deps) const {
    int d = 0;
    for (int v : deps) d = std::max(d, v + 1);
    return d;
  }
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

  // The engine is one sweep: visits == nodes, and the counter advances by
  // exactly that (linear, not quadratic).
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
// Checker linearity: SCH007, RTL005 and RTL007 sweep the cells each unit's
// ops and lifetimes occupy, so verifying an MFSA design at 2N ops must stay
// within 2.2x the verify.cells work at N (comparing every pair of ops per
// unit grew quadratically).

TEST(Scale, VerifyCellsGrowLinearlyInN) {
  const CounterScope counters;
  const celllib::CellLibrary lib = celllib::ncrLike();
  for (const auto topo : {workloads::DfgTopology::Conv,
                          workloads::DfgTopology::Lstm,
                          workloads::DfgTopology::Transformer}) {
    std::uint64_t cells[2];
    const int sizes[2] = {5000, 10000};
    for (int i = 0; i < 2; ++i) {
      workloads::RandomDfgOptions opt;
      opt.topology = topo;
      opt.numOps = sizes[i];
      opt.layerWidth = 64;
      opt.seed = 7;
      const dfg::Dfg g = workloads::randomDfg(opt);
      core::MfsaOptions mo;
      mo.constraints.timeSteps =
          sched::computeTimeFrames(g, mo.constraints)->criticalSteps();
      const core::MfsaResult r = core::runMfsa(g, lib, mo);
      ASSERT_TRUE(r.feasible) << r.error;
      const std::uint64_t c0 = counter(trace::Counter::VerifyCells);
      EXPECT_TRUE(
          analysis::lintSchedule(r.datapath.schedule, mo.constraints).empty());
      EXPECT_TRUE(analysis::lintDatapath(r.datapath, mo.constraints,
                                         rtl::DesignStyle::Unrestricted)
                      .empty());
      cells[i] = counter(trace::Counter::VerifyCells) - c0;
    }
    EXPECT_LE(cells[1], cells[0] * 22 / 10) << "topology " << static_cast<int>(topo);
    EXPECT_GE(cells[1], cells[0]) << "topology " << static_cast<int>(topo);
  }
}

// ---------------------------------------------------------------------------
// MFSA's per-ALU walk jumps over each ALU's full steps
// (ColumnOccupancy::firstPlaceable), so the steps it examines at 2N ops stay
// within 2.2x those at N. Probing every occupied step in turn grew
// quadratically on transformer designs, whose ALUs stay nearly full across
// the schedule.

TEST(Scale, MfsaWalkGrowsLinearlyInN) {
  const CounterScope counters;
  const celllib::CellLibrary lib = celllib::ncrLike();
  for (const auto topo : {workloads::DfgTopology::Conv,
                          workloads::DfgTopology::Lstm,
                          workloads::DfgTopology::Transformer}) {
    std::uint64_t probes[2];
    const int sizes[2] = {5000, 10000};
    for (int i = 0; i < 2; ++i) {
      workloads::RandomDfgOptions opt;
      opt.topology = topo;
      opt.numOps = sizes[i];
      opt.layerWidth = 64;
      opt.seed = 7;
      const dfg::Dfg g = workloads::randomDfg(opt);
      core::MfsaOptions mo;
      mo.constraints.timeSteps =
          sched::computeTimeFrames(g, mo.constraints)->criticalSteps();
      const std::uint64_t p0 = counter(trace::Counter::MfsaOccupancyProbes);
      const core::MfsaResult r = core::runMfsa(g, lib, mo);
      ASSERT_TRUE(r.feasible) << r.error;
      probes[i] = counter(trace::Counter::MfsaOccupancyProbes) - p0;
    }
    EXPECT_LE(probes[1], probes[0] * 22 / 10) << "topology " << static_cast<int>(topo);
    EXPECT_GE(probes[1], probes[0]) << "topology " << static_cast<int>(topo);
  }
}

// ---------------------------------------------------------------------------
// prove executes each issue once, plus a retry per wait of a chained read
// on its producer's issue in the same step, so its issue attempts at 2N
// ops stay within 2.2x those at N, plain and chained.

TEST(Scale, ProveAttemptsGrowLinearlyInN) {
  const CounterScope counters;
  const celllib::CellLibrary lib = celllib::ncrLike();
  for (const bool chained : {false, true}) {
    for (const auto topo : {workloads::DfgTopology::Conv,
                            workloads::DfgTopology::Lstm,
                            workloads::DfgTopology::Transformer}) {
      std::uint64_t attempts[2];
      const int sizes[2] = {5000, 10000};
      for (int i = 0; i < 2; ++i) {
        workloads::RandomDfgOptions opt;
        opt.topology = topo;
        opt.numOps = sizes[i];
        opt.layerWidth = 64;
        opt.seed = 7;
        const dfg::Dfg g = workloads::randomDfg(opt);
        core::MfsaOptions mo;
        mo.constraints.allowChaining = chained;
        mo.constraints.clockNs = 200.0;
        mo.constraints.timeSteps =
            sched::computeTimeFrames(g, mo.constraints)->criticalSteps();
        const core::MfsaResult r = core::runMfsa(g, lib, mo);
        ASSERT_TRUE(r.feasible) << r.error;
        const std::uint64_t a0 = counter(trace::Counter::ProveIssueAttempts);
        EXPECT_TRUE(analysis::proveDatapath(r.datapath).empty());
        attempts[i] = counter(trace::Counter::ProveIssueAttempts) - a0;
        EXPECT_GE(attempts[i], g.operations().size());
      }
      EXPECT_LE(attempts[1], attempts[0] * 22 / 10)
          << "topology " << static_cast<int>(topo) << " chained " << chained;
    }
  }
}

// ---------------------------------------------------------------------------
// STA times every endpoint but formats a path only where one is reported:
// the worst endpoint's critical path and each TIM finding's provenance. So
// sta.endpoints grows with N while sta.pathLines stays one path long.

TEST(Scale, StaFormatsOnlyReportedPaths) {
  const CounterScope counters;
  const celllib::CellLibrary lib = celllib::ncrLike();
  for (const auto topo : {workloads::DfgTopology::Conv,
                          workloads::DfgTopology::Lstm,
                          workloads::DfgTopology::Transformer}) {
    std::uint64_t endpoints[2];
    const int sizes[2] = {5000, 10000};
    for (int i = 0; i < 2; ++i) {
      workloads::RandomDfgOptions opt;
      opt.topology = topo;
      opt.numOps = sizes[i];
      opt.layerWidth = 64;
      opt.seed = 7;
      const dfg::Dfg g = workloads::randomDfg(opt);
      core::MfsaOptions mo;
      mo.constraints.timeSteps =
          sched::computeTimeFrames(g, mo.constraints)->criticalSteps();
      const core::MfsaResult r = core::runMfsa(g, lib, mo);
      ASSERT_TRUE(r.feasible) << r.error;
      const std::uint64_t e0 = counter(trace::Counter::StaEndpoints);
      const std::uint64_t l0 = counter(trace::Counter::StaPathLines);
      const auto sta = analysis::timing::analyzeTiming(r.datapath);
      endpoints[i] = counter(trace::Counter::StaEndpoints) - e0;
      EXPECT_TRUE(sta.diagnostics.empty()) << sta.diagnostics.renderText();
      EXPECT_FALSE(sta.criticalPath.empty());
      EXPECT_EQ(counter(trace::Counter::StaPathLines) - l0,
                sta.criticalPath.size())
          << "topology " << static_cast<int>(topo) << ", " << sizes[i]
          << " ops";
    }
    EXPECT_LE(endpoints[1], endpoints[0] * 22 / 10) << "topology " << static_cast<int>(topo);
    EXPECT_GE(endpoints[1], endpoints[0]) << "topology " << static_cast<int>(topo);
  }

  // slowchain under `--steps 1 --chaining --clock 100`: TIM001 carries the
  // path as provenance, formatted once more for the finding.
  const dfg::Dfg slow = dfg::parse(test::readFile(
      std::string(MFRAME_TESTS_DIR) + "/../tools/designs/slowchain.dfg"));
  analysis::AnalyzeOptions ao;
  ao.steps = 1;
  ao.constraints.allowChaining = true;
  ao.constraints.clockNs = 100.0;
  ao.clockSet = true;
  const std::uint64_t l0 = counter(trace::Counter::StaPathLines);
  const analysis::AnalyzeResult r = analysis::analyzeDesign(slow, lib, ao);
  ASSERT_TRUE(r.timingRan) << r.timingSkip;
  ASSERT_FALSE(r.timing.diagnostics.empty());
  std::size_t lines = r.timing.criticalPath.size();
  for (const analysis::Diagnostic& d : r.timing.diagnostics.diagnostics())
    lines += d.provenance.size();
  EXPECT_EQ(counter(trace::Counter::StaPathLines) - l0, lines);
}

// ---------------------------------------------------------------------------
// MFSA prices an existing ALU's mux delta only once its walk finds a free,
// dependency-feasible step: an ALU with none yields no candidate and costs
// no pricing. In greedy mode each priced ALU then yields exactly one
// candidate, so the probes cannot outnumber the candidates.

TEST(Scale, MfsaPricesOnlyPlaceableAlus) {
  const CounterScope counters;
  workloads::RandomDfgOptions opt;
  opt.topology = workloads::DfgTopology::Conv;
  opt.numOps = 3000;
  opt.layerWidth = 64;
  opt.numInputs = 8;
  opt.seed = 1;
  const dfg::Dfg g = workloads::randomDfg(opt);
  ASSERT_GE(g.size(), core::kMfsaGreedyThreshold);
  core::MfsaOptions mo;
  mo.constraints.timeSteps =
      sched::computeTimeFrames(g, mo.constraints)->criticalSteps() + 1;
  const std::uint64_t p0 = counter(trace::Counter::MuxDeltaIncremental);
  const std::uint64_t c0 = counter(trace::Counter::MfsaCandidates);
  const core::MfsaResult r = core::runMfsa(g, celllib::ncrLike(), mo);
  ASSERT_TRUE(r.feasible) << r.error;
  const std::uint64_t probes = counter(trace::Counter::MuxDeltaIncremental) - p0;
  const std::uint64_t candidates = counter(trace::Counter::MfsaCandidates) - c0;
  EXPECT_GT(probes, 0u);
  EXPECT_LE(probes, candidates);
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
// MFS frontier-vs-exhaustive equivalence. runMfs finds each op's cell by
// walking its dependency window in energy order; the oracle below is the
// paper's exhaustive formulation, which prices every cell of
// FrameCalculator::compute's move frame and keeps the minimum-energy one
// (earlier step, then lower column, on a tie). Any cell the walk picks
// differently shows up as a differing step or column.

struct ExhaustiveMfs {
  bool feasible = false;
  int steps = 0;
  int restarts = 0;
  sched::Schedule schedule;
};

ExhaustiveMfs exhaustiveMfs(const dfg::Dfg& g, const core::MfsOptions& opt) {
  const bool timeMode = opt.mode == core::MfsLiapunov::Mode::TimeConstrained;
  sched::Constraints c = opt.constraints;
  sched::Constraints probe;
  probe.allowChaining = c.allowChaining;
  probe.clockNs = c.clockNs;
  const int critical = sched::computeTimeFrames(g, probe)->criticalSteps();
  ExhaustiveMfs res;
  for (int cs = timeMode ? c.timeSteps : std::max(critical, c.timeSteps);
       cs <= core::kMfsMaxStepsCap; ++cs) {
    c.timeSteps = cs;
    const auto tf = sched::computeTimeFrames(g, c);
    std::vector<int> maxCols(dfg::kNumFuTypes), current(dfg::kNumFuTypes);
    std::vector<bool> userLimited(dfg::kNumFuTypes, false);
    for (std::size_t t = 0; t < dfg::kNumFuTypes; ++t) {
      const auto ft = static_cast<dfg::FuType>(t);
      const auto lim = c.fuLimit.find(ft);
      userLimited[t] = lim != c.fuLimit.end();
      maxCols[t] = userLimited[t] ? lim->second : std::max(1, tf->upperBound(ft));
      const int balanced = static_cast<int>(
          (g.countOfType(ft) + static_cast<std::size_t>(cs) - 1) /
          static_cast<std::size_t>(cs));
      current[t] = timeMode ? std::min(std::max(balanced, 1), maxCols[t])
                            : maxCols[t];
    }
    const auto order = core::topoConsistentOrder(
        g, sched::priorityOrder(g, *tf, opt.priorityRule));
    bool csInfeasible = false;
    while (!csInfeasible) {
      const core::MfsLiapunov energy(
          opt.mode, *std::max_element(maxCols.begin(), maxCols.end()), cs);
      sched::Schedule s(g);
      s.setNumSteps(cs);
      core::Grid grid(g, c);
      core::FrameCalculator fc(g, c, *tf);
      bool restart = false;
      for (NodeId id : *order) {
        const dfg::FuType type = dfg::fuTypeOf(g.kindOf(id));
        const auto t = static_cast<std::size_t>(type);
        const auto frames =
            fc.compute(s, grid.table(type), id, current[t], maxCols[t]);
        // The move frame lists cells step-major, columns ascending, so a
        // strict comparison keeps the earlier step, then the lower column.
        const sched::Placement* best = nullptr;
        for (const sched::Placement& cell : frames.moveFrame)
          if (!best || energy.value(cell.column, cell.step) <
                           energy.value(best->column, best->step))
            best = &cell;
        if (best == nullptr) {
          if (current[t] < maxCols[t]) {
            ++current[t];
          } else if (timeMode && !userLimited[t]) {
            ++maxCols[t];
            ++current[t];
          } else if (!timeMode) {
            csInfeasible = true;
            break;
          } else {
            return res;
          }
          if (++res.restarts > core::kMfsMaxRestarts) return res;
          restart = true;
          break;
        }
        const sched::Placement cell = *best;
        grid.place(id, cell.column, cell.step);
        s.place(id, cell.step, cell.column);
        fc.recordPlacement(s, id, cell.step);
      }
      if (restart) continue;
      if (csInfeasible) break;
      res.feasible = true;
      res.steps = cs;
      res.schedule = std::move(s);
      return res;
    }
    if (timeMode) break;
  }
  return res;
}

void expectMatchesExhaustive(const dfg::Dfg& g, const core::MfsOptions& opt,
                             const std::string& what) {
  const auto ex = exhaustiveMfs(g, opt);
  const auto fr = core::runMfs(g, opt);
  ASSERT_TRUE(ex.feasible) << what;
  ASSERT_TRUE(fr.feasible) << what << ": " << fr.error;
  EXPECT_EQ(ex.steps, fr.steps) << what;
  EXPECT_EQ(ex.restarts, fr.restarts) << what;
  for (NodeId id : g.operations()) {
    ASSERT_EQ(ex.schedule.stepOf(id), fr.schedule.stepOf(id))
        << what << " " << g.node(id).name;
    ASSERT_EQ(ex.schedule.columnOf(id), fr.schedule.columnOf(id))
        << what << " " << g.node(id).name;
  }
}

TEST(Scale, MfsFrontierMatchesExhaustive) {
  workloads::RandomDfgOptions wopt;
  wopt.topology = workloads::DfgTopology::Transformer;
  wopt.numOps = 800;
  wopt.layerWidth = 24;
  wopt.twoCyclePercent = 30;
  wopt.seed = 11;
  const dfg::Dfg g = workloads::randomDfg(wopt);

  core::MfsOptions time;
  sched::Constraints probe;
  time.constraints.timeSteps =
      sched::computeTimeFrames(g, probe)->criticalSteps() + 2;
  expectMatchesExhaustive(g, time, "time");

  core::MfsOptions resource;
  resource.mode = core::MfsLiapunov::Mode::ResourceConstrained;
  resource.constraints.fuLimit[dfg::FuType::Multiplier] = 6;
  resource.constraints.fuLimit[dfg::FuType::Adder] = 8;
  expectMatchesExhaustive(g, resource, "resource");
}

TEST(Scale, MfsFrontierMatchesExhaustiveOnPaperDesigns) {
  std::vector<workloads::BenchmarkCase> cases = workloads::paperSuite();
  cases.push_back({.id = "fdct", .feature = "1",
                   .graph = workloads::fdctLike(), .timeSweep = {8, 9, 11},
                   .constraints = {}});
  cases.push_back({.id = "iir", .feature = "1",
                   .graph = workloads::iirBiquads(), .timeSweep = {13, 14, 16},
                   .constraints = {}});
  for (const auto& bc : cases) {
    for (int cs : bc.timeSweep) {
      core::MfsOptions time;
      time.constraints = bc.constraints;
      time.constraints.timeSteps = cs;
      expectMatchesExhaustive(bc.graph, time,
                              util::format("%s time %d", bc.id.c_str(), cs));
      time.priorityRule = sched::PriorityRule::InsertionOrder;
      expectMatchesExhaustive(bc.graph, time,
                              util::format("%s time %d insertion order",
                                           bc.id.c_str(), cs));
    }
    core::MfsOptions resource;
    resource.mode = core::MfsLiapunov::Mode::ResourceConstrained;
    resource.constraints = bc.constraints;
    expectMatchesExhaustive(bc.graph, resource, bc.id + " resource");
    // One unit of every type forces long schedules and many restarts.
    for (std::size_t t = 0; t < dfg::kNumFuTypes; ++t)
      resource.constraints.fuLimit[static_cast<dfg::FuType>(t)] = 1;
    expectMatchesExhaustive(bc.graph, resource, bc.id + " resource 1/type");
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
