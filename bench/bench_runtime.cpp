// Runtime benchmarks (google-benchmark) backing the paper's Section-6
// claims: MFS < 0.2 s and MFSA < 0.4 s per example on a 1992 SPARC-SLC, and
// the Section-1 claim that "the main advantage of our methods over existing
// scheduling and allocation algorithms is in running time" — compared here
// against our force-directed and list-scheduling baselines, plus a scaling
// sweep on random DFGs (MFS is O(l^3) worst case).
#include <benchmark/benchmark.h>

#include "baseline/fds.h"
#include "baseline/list_sched.h"
#include "celllib/ncr_like.h"
#include "core/mfs.h"
#include "core/mfsa.h"
#include "workloads/benchmarks.h"
#include "workloads/random_dfg.h"

namespace {

using namespace mframe;

const workloads::BenchmarkCase& suiteCase(std::size_t i) {
  static const auto suite = workloads::paperSuite();
  return suite[i];
}

void BM_MfsSuite(benchmark::State& state) {
  const auto& bc = suiteCase(static_cast<std::size_t>(state.range(0)));
  core::MfsOptions o;
  o.constraints = bc.constraints;
  o.constraints.timeSteps = bc.timeSweep.front();
  for (auto _ : state) {
    auto r = core::runMfs(bc.graph, o);
    benchmark::DoNotOptimize(r.feasible);
  }
  state.SetLabel(bc.graph.name());
}
BENCHMARK(BM_MfsSuite)->DenseRange(0, 5);

void BM_MfsaSuite(benchmark::State& state) {
  static const celllib::CellLibrary lib = celllib::ncrLike();
  const auto& bc = suiteCase(static_cast<std::size_t>(state.range(0)));
  core::MfsaOptions o;
  o.constraints = bc.constraints;
  o.constraints.timeSteps = bc.timeSweep.front();
  for (auto _ : state) {
    auto r = core::runMfsa(bc.graph, lib, o);
    benchmark::DoNotOptimize(r.feasible);
  }
  state.SetLabel(bc.graph.name());
}
BENCHMARK(BM_MfsaSuite)->DenseRange(0, 5);

void BM_FdsDiffeq(benchmark::State& state) {
  const dfg::Dfg g = workloads::diffeq();
  sched::Constraints c;
  c.timeSteps = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto r = baseline::runForceDirected(g, c);
    benchmark::DoNotOptimize(r.feasible);
  }
}
BENCHMARK(BM_FdsDiffeq)->Arg(4)->Arg(8);

void BM_FdsEwf(benchmark::State& state) {
  const dfg::Dfg g = workloads::ewfLike();
  sched::Constraints c;
  c.timeSteps = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto r = baseline::runForceDirected(g, c);
    benchmark::DoNotOptimize(r.feasible);
  }
}
BENCHMARK(BM_FdsEwf)->Arg(17)->Arg(21)->Unit(benchmark::kMillisecond);

void BM_MfsEwf(benchmark::State& state) {
  const dfg::Dfg g = workloads::ewfLike();
  core::MfsOptions o;
  o.constraints.timeSteps = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto r = core::runMfs(g, o);
    benchmark::DoNotOptimize(r.feasible);
  }
}
BENCHMARK(BM_MfsEwf)->Arg(17)->Arg(21);

void BM_ListSchedEwf(benchmark::State& state) {
  const dfg::Dfg g = workloads::ewfLike();
  sched::Constraints c;
  c.fuLimit[dfg::FuType::Adder] = 3;
  c.fuLimit[dfg::FuType::Multiplier] = 3;
  for (auto _ : state) {
    auto r = baseline::runListScheduling(g, c);
    benchmark::DoNotOptimize(r.feasible);
  }
}
BENCHMARK(BM_ListSchedEwf);

// Scaling sweep: MFS runtime vs DFG size (the O(l^3) worst-case claim —
// expect mildly super-linear growth on layered random graphs).
void BM_MfsScaling(benchmark::State& state) {
  workloads::RandomDfgOptions o;
  o.seed = 42;
  o.numOps = static_cast<int>(state.range(0));
  o.layerWidth = 6;
  const dfg::Dfg g = workloads::randomDfg(o);
  sched::Constraints probe;
  const auto tf = sched::computeTimeFrames(g, probe);
  core::MfsOptions mo;
  mo.constraints.timeSteps = tf->criticalSteps() + 3;
  for (auto _ : state) {
    auto r = core::runMfs(g, mo);
    benchmark::DoNotOptimize(r.feasible);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MfsScaling)->RangeMultiplier(2)->Range(16, 256)->Complexity();

void BM_MfsaScaling(benchmark::State& state) {
  static const celllib::CellLibrary lib = celllib::ncrLike();
  workloads::RandomDfgOptions o;
  o.seed = 42;
  o.numOps = static_cast<int>(state.range(0));
  o.layerWidth = 6;
  const dfg::Dfg g = workloads::randomDfg(o);
  sched::Constraints probe;
  const auto tf = sched::computeTimeFrames(g, probe);
  core::MfsaOptions mo;
  mo.constraints.timeSteps = tf->criticalSteps() + 3;
  for (auto _ : state) {
    auto r = core::runMfsa(g, lib, mo);
    benchmark::DoNotOptimize(r.feasible);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MfsaScaling)->RangeMultiplier(2)->Range(16, 128)->Complexity();

}  // namespace

BENCHMARK_MAIN();
