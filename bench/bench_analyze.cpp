// Dataflow/timing analysis benchmarks (google-benchmark): the fixpoint
// engine on the paper designs and on large random DAGs (is the worklist
// really near-linear?), plus the full analyzeDesign orchestration — lint,
// schedule, bind, STA — as the user pays for it in `mframe analyze`.
#include <benchmark/benchmark.h>

#include "analysis/analyze.h"
#include "analysis/dataflow/analyze.h"
#include "celllib/ncr_like.h"
#include "workloads/benchmarks.h"
#include "workloads/random_dfg.h"

namespace {

using namespace mframe;

dfg::Dfg bigRandom(int ops) {
  workloads::RandomDfgOptions opt;
  opt.seed = 42;
  opt.numOps = ops;
  opt.numInputs = 8;
  opt.layerWidth = 8;
  opt.twoCyclePercent = 20;
  return workloads::randomDfg(opt);
}

// The four dataflow passes plus OPT reporting on one paper design.
void BM_DataflowSuite(benchmark::State& state) {
  static const auto suite = workloads::paperSuite();
  const auto& bc = suite[static_cast<std::size_t>(state.range(0))];
  for (auto _ : state) {
    const auto r = analysis::dataflow::lintDataflow(bc.graph);
    benchmark::DoNotOptimize(r.engineVisits);
  }
  state.SetLabel(bc.graph.name());
}
BENCHMARK(BM_DataflowSuite)->DenseRange(0, 5)->Unit(benchmark::kMicrosecond);

// Engine scaling: fixpoint over random DAGs from 100 to 5000 operations.
void BM_DataflowScaling(benchmark::State& state) {
  const dfg::Dfg g = bigRandom(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const auto r = analysis::dataflow::lintDataflow(g);
    benchmark::DoNotOptimize(r.engineVisits);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DataflowScaling)
    ->Arg(100)
    ->Arg(500)
    ->Arg(1000)
    ->Arg(5000)
    ->Unit(benchmark::kMillisecond)
    ->Complexity(benchmark::oN);

// End-to-end `mframe analyze`: dataflow + MFS schedule + binding + STA.
void BM_AnalyzeDesign(benchmark::State& state) {
  static const auto suite = workloads::paperSuite();
  static const celllib::CellLibrary lib = celllib::ncrLike();
  const auto& bc = suite[static_cast<std::size_t>(state.range(0))];
  analysis::AnalyzeOptions opts;
  opts.constraints = bc.constraints;
  opts.constraints.clockNs = 200.0;
  opts.clockSet = true;
  for (auto _ : state) {
    const auto r = analysis::analyzeDesign(bc.graph, lib, opts);
    benchmark::DoNotOptimize(r.timing.worstSlackNs);
  }
  state.SetLabel(bc.graph.name());
}
BENCHMARK(BM_AnalyzeDesign)->DenseRange(0, 5)->Unit(benchmark::kMillisecond);

// STA alone on a dense chained datapath: the slowchain shape scaled up.
void BM_StaChained(benchmark::State& state) {
  workloads::RandomDfgOptions opt;
  opt.seed = 7;
  opt.numOps = static_cast<int>(state.range(0));
  opt.numInputs = 6;
  opt.layerWidth = 4;
  opt.randomDelays = true;
  const dfg::Dfg g = workloads::randomDfg(opt);
  static const celllib::CellLibrary lib = celllib::ncrLike();
  analysis::AnalyzeOptions opts;
  opts.constraints.allowChaining = true;
  opts.constraints.clockNs = 100.0;
  opts.clockSet = true;
  for (auto _ : state) {
    const auto r = analysis::analyzeDesign(g, lib, opts);
    benchmark::DoNotOptimize(r.timing.maxChainDepth);
  }
}
BENCHMARK(BM_StaChained)->Arg(50)->Arg(200)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
