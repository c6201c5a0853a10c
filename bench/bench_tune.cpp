// Tune-loop benchmarks (google-benchmark): the criticality pass alone, cone
// extraction, and the full feedback loop — criticality, cone re-scheduling,
// stitching, the prove gate — as the user pays for it in `mframe tune`.
#include <benchmark/benchmark.h>

#include "analysis/criticality/criticality.h"
#include "analysis/criticality/tune.h"
#include "analysis/timing/sta.h"
#include "celllib/ncr_like.h"
#include "core/mfs.h"
#include "dfg/transforms.h"
#include "rtl/datapath.h"
#include "sched/slack.h"
#include "sched/timeframes.h"
#include "workloads/benchmarks.h"

namespace {

using namespace mframe;

sched::Constraints tuneConstraints(double clockNs) {
  sched::Constraints c;
  c.allowChaining = true;
  c.clockNs = clockNs;
  return c;
}

// The criticality pass on a deliberately violating schedule: chain every
// paper design as aggressively as its claimed delays allow, then score.
void BM_CriticalityPass(benchmark::State& state) {
  static const auto suite = workloads::paperSuite();
  static const celllib::CellLibrary lib = celllib::ncrLike();
  const auto& bc = suite[static_cast<std::size_t>(state.range(0))];

  core::MfsOptions mo;
  mo.constraints = tuneConstraints(200.0);
  // Same default as tuneDesign: the chaining-aware critical step count —
  // the most aggressive schedule the claimed delays promise.
  mo.constraints.timeSteps =
      sched::computeTimeFrames(bc.graph, mo.constraints)->criticalSteps();
  const core::MfsResult r = core::runMfs(bc.graph, mo);
  if (!r.feasible) {
    state.SkipWithError("infeasible baseline schedule");
    return;
  }
  const rtl::Datapath dp = rtl::buildDatapath(
      bc.graph, lib, r.schedule,
      rtl::bindByColumns(bc.graph, lib, r.schedule, mo.constraints));
  analysis::timing::TimingOptions to;
  to.clockNs = 200.0;
  to.clockSet = true;
  const analysis::timing::TimingReport tr = analysis::timing::analyzeTiming(dp, to);
  const auto slack = sched::analyzeSlack(r.schedule, mo.constraints);

  for (auto _ : state) {
    const auto crit = analysis::criticality::analyzeCriticality(
        dp, tr, slack ? *slack : sched::SlackReport{});
    benchmark::DoNotOptimize(crit.engineVisits);
  }
  state.SetLabel(bc.graph.name());
}
BENCHMARK(BM_CriticalityPass)->DenseRange(0, 5)->Unit(benchmark::kMicrosecond);

// Cone extraction around the latest operations of each paper design.
void BM_ExtractCone(benchmark::State& state) {
  static const auto suite = workloads::paperSuite();
  const auto& bc = suite[static_cast<std::size_t>(state.range(0))];
  std::vector<dfg::NodeId> seeds;
  for (const auto& [id, ext] : bc.graph.outputs())
    if (dfg::isSchedulable(bc.graph.node(id).kind)) seeds.push_back(id);
  for (auto _ : state) {
    const dfg::ConeCut cut = dfg::extractCone(bc.graph, seeds, 2);
    benchmark::DoNotOptimize(cut.coneOps);
  }
  state.SetLabel(bc.graph.name());
}
BENCHMARK(BM_ExtractCone)->DenseRange(0, 5)->Unit(benchmark::kMicrosecond);

// End-to-end `mframe tune` on each paper design at a 200 ns clock.
void BM_TuneDesign(benchmark::State& state) {
  static const auto suite = workloads::paperSuite();
  static const celllib::CellLibrary lib = celllib::ncrLike();
  const auto& bc = suite[static_cast<std::size_t>(state.range(0))];
  analysis::criticality::TuneOptions opt;
  opt.constraints = tuneConstraints(200.0);
  opt.budget = 4;
  opt.jobs = 1;
  for (auto _ : state) {
    const auto r = analysis::criticality::tuneDesign(bc.graph, lib, opt);
    benchmark::DoNotOptimize(r.worstSlackNs);
  }
  state.SetLabel(bc.graph.name());
}
BENCHMARK(BM_TuneDesign)->DenseRange(0, 5)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
