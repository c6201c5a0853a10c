// Interval-range-analysis benchmarks (google-benchmark): the abstract
// interpretation over the FSM x datapath product on the paper designs,
// scaling on large random DAGs (the per-state scan should stay near-linear
// in states x issues), and the worker-thread sweep for the parallel scan.
#include <benchmark/benchmark.h>

#include "analysis/range/range.h"
#include "baseline/asap_sched.h"
#include "celllib/ncr_like.h"
#include "rtl/controller.h"
#include "rtl/datapath.h"
#include "rtl/microcode.h"
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

/// The analysis's input triple, synthesized once outside the timed loop.
struct Synthesized {
  rtl::Datapath datapath;
  rtl::ControllerFsm fsm;
  rtl::MicrocodeRom rom;
};

Synthesized synthesize(const dfg::Dfg& g) {
  static const celllib::CellLibrary lib = celllib::ncrLike();
  const auto asap = baseline::runAsap(g, {});
  Synthesized s{rtl::buildDatapath(
                    g, lib, asap.schedule,
                    rtl::bindByColumns(g, lib, asap.schedule, {})),
                {},
                {}};
  s.fsm = rtl::buildController(s.datapath);
  s.rom = rtl::buildMicrocode(s.datapath, s.fsm);
  return s;
}

// Full range analysis on one paper design.
void BM_RangeSuite(benchmark::State& state) {
  static const auto suite = workloads::paperSuite();
  const auto& bc = suite[static_cast<std::size_t>(state.range(0))];
  const Synthesized s = synthesize(bc.graph);
  for (auto _ : state) {
    const auto r = analysis::range::analyzeDesignRanges(s.datapath, s.fsm,
                                                        s.rom);
    benchmark::DoNotOptimize(r.statesInterpreted);
  }
  state.SetLabel(bc.graph.name());
}
BENCHMARK(BM_RangeSuite)->DenseRange(0, 5)->Unit(benchmark::kMicrosecond);

// Scaling: range analysis of random designs from 100 to 5000 operations.
void BM_RangeScaling(benchmark::State& state) {
  const Synthesized s = synthesize(bigRandom(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    const auto r = analysis::range::analyzeDesignRanges(s.datapath, s.fsm,
                                                        s.rom);
    benchmark::DoNotOptimize(r.statesInterpreted);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RangeScaling)
    ->Arg(100)
    ->Arg(500)
    ->Arg(1000)
    ->Arg(5000)
    ->Unit(benchmark::kMillisecond)
    ->Complexity(benchmark::oN);

// Worker sweep for the parallel per-state scan on the 5000-op design; the
// report is jobs-invariant, so only wall clock may move.
void BM_RangeJobs(benchmark::State& state) {
  static const Synthesized s = synthesize(bigRandom(5000));
  analysis::range::RangeOptions opt;
  opt.jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto r = analysis::range::analyzeDesignRanges(s.datapath, s.fsm,
                                                        s.rom, opt);
    benchmark::DoNotOptimize(r.statesInterpreted);
  }
}
BENCHMARK(BM_RangeJobs)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(
    benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
