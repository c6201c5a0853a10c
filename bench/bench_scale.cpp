// Scale benchmarks (google-benchmark) for the arena/CSR DFG core: build,
// schedule, synthesize and analyze 10^4-10^5-op NN-shaped random DAGs. The
// committed numbers in BENCH_runtime.json are the evidence for the ISSUE-10
// acceptance bound — `synth` + `analyze` on a 100k-op DAG in single-digit
// seconds — and the per-run counters expose any super-linear regression:
// mfsa.commits must stay ~= ops and dfg.csrEdges ~= edges.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <map>
#include <utility>

#include "analysis/analyze.h"
#include "analysis/audit/audit.h"
#include "analysis/range/range.h"
#include "analysis/timing/sta.h"
#include "analysis/validate/validate.h"
#include "celllib/ncr_like.h"
#include "core/mfs.h"
#include "core/mfsa.h"
#include "rtl/controller.h"
#include "rtl/datapath.h"
#include "rtl/microcode.h"
#include "rtl/verify.h"
#include "sched/timeframes.h"
#include "trace/trace.h"
#include "workloads/random_dfg.h"

namespace {

using namespace mframe;

dfg::Dfg scaleGraph(workloads::DfgTopology topo, int ops) {
  workloads::RandomDfgOptions opt;
  opt.topology = topo;
  opt.numOps = ops;
  opt.layerWidth = 64;
  opt.numInputs = 8;
  opt.seed = 42;
  return workloads::randomDfg(opt);
}

// Cache the big graphs across benchmarks: generation is benchmarked once
// explicitly (BM_ScaleBuild) and would otherwise dominate setup time.
const dfg::Dfg& cachedGraph(workloads::DfgTopology topo, int ops) {
  static std::map<std::pair<int, int>, dfg::Dfg> cache;
  auto key = std::make_pair(static_cast<int>(topo), ops);
  auto it = cache.find(key);
  if (it == cache.end())
    it = cache.emplace(key, scaleGraph(topo, ops)).first;
  return it->second;
}

constexpr workloads::DfgTopology kTopos[] = {
    workloads::DfgTopology::Conv, workloads::DfgTopology::Lstm,
    workloads::DfgTopology::Transformer};

// Graph construction + eager freeze (CSR build) itself.
void BM_ScaleBuild(benchmark::State& state) {
  const auto topo = kTopos[static_cast<std::size_t>(state.range(0))];
  const int ops = static_cast<int>(state.range(1));
  for (auto _ : state) {
    const dfg::Dfg g = scaleGraph(topo, ops);
    benchmark::DoNotOptimize(g.size());
  }
  state.SetComplexityN(ops);
}
BENCHMARK(BM_ScaleBuild)
    ->ArgsProduct({{0, 1, 2}, {10000, 100000}})
    ->Unit(benchmark::kMillisecond);

// MFS under resource constraints: minimize latency on the 100k conv graph.
void BM_ScaleMfs(benchmark::State& state) {
  const int ops = static_cast<int>(state.range(0));
  const dfg::Dfg& g = cachedGraph(workloads::DfgTopology::Conv, ops);
  core::MfsOptions o;
  o.mode = core::MfsLiapunov::Mode::ResourceConstrained;
  for (auto _ : state) {
    auto r = core::runMfs(g, o);
    benchmark::DoNotOptimize(r.feasible);
  }
  state.counters["ops"] = ops;
}
BENCHMARK(BM_ScaleMfs)->Arg(10000)->Arg(100000)->Unit(benchmark::kMillisecond);

// MFSA at the design's critical path: the full mixed scheduling-allocation
// loop (frontier move-frame search, O(1) mux arrangement maintenance).
void BM_ScaleMfsa(benchmark::State& state) {
  static const celllib::CellLibrary lib = celllib::ncrLike();
  const auto topo = kTopos[static_cast<std::size_t>(state.range(0))];
  const int ops = static_cast<int>(state.range(1));
  const dfg::Dfg& g = cachedGraph(topo, ops);
  core::MfsaOptions o;
  sched::Constraints probe;
  o.constraints.timeSteps = sched::computeTimeFrames(g, probe)->criticalSteps();
  // trace::bump is gated; without this the commitsPerOp counter reads 0.
  const bool countersWereOn = trace::countersEnabled();
  trace::enableCounters(true);
  const std::uint64_t c0 = trace::counterValue(trace::Counter::MfsaCommits);
  const std::uint64_t p0 =
      trace::counterValue(trace::Counter::MfsaOccupancyProbes);
  for (auto _ : state) {
    auto r = core::runMfsa(g, lib, o);
    benchmark::DoNotOptimize(r.feasible);
  }
  const double perOp = static_cast<double>(state.iterations()) * ops;
  // ~1 commit per op per run proves the pass stayed restart-free linear.
  state.counters["commitsPerOp"] = static_cast<double>(
      trace::counterValue(trace::Counter::MfsaCommits) - c0) / perOp;
  // Steps the per-ALU walks examine per op: flat in N while the walk jumps
  // over full steps, growing with N if it probed them one by one.
  state.counters["probesPerOp"] = static_cast<double>(
      trace::counterValue(trace::Counter::MfsaOccupancyProbes) - p0) / perOp;
  trace::enableCounters(countersWereOn);
}
BENCHMARK(BM_ScaleMfsa)
    ->ArgsProduct({{0, 1, 2}, {10000}})
    ->Args({0, 100000})
    ->Args({2, 100000})
    ->Unit(benchmark::kMillisecond);

// The full `mframe analyze` pipeline: dataflow lint + schedule + bind + STA.
void BM_ScaleAnalyze(benchmark::State& state) {
  static const celllib::CellLibrary lib = celllib::ncrLike();
  const int ops = static_cast<int>(state.range(0));
  const dfg::Dfg& g = cachedGraph(workloads::DfgTopology::Conv, ops);
  for (auto _ : state) {
    const auto r = analysis::analyzeDesign(g, lib, {});
    benchmark::DoNotOptimize(r.report.size());
  }
  state.counters["ops"] = ops;
}
BENCHMARK(BM_ScaleAnalyze)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

/// The MFSA datapath of the conv design at its critical path, built once
/// per size outside every timed loop, with the constraints it was built
/// under; nullptr (and the benchmark skipped) when MFSA fails.
const core::MfsaResult* cachedSynthesis(benchmark::State& state, int ops) {
  static const celllib::CellLibrary lib = celllib::ncrLike();
  static std::map<int, core::MfsaResult> results;
  auto it = results.find(ops);
  if (it == results.end()) {
    const dfg::Dfg& g = cachedGraph(workloads::DfgTopology::Conv, ops);
    core::MfsaOptions o;
    sched::Constraints probe;
    o.constraints.timeSteps =
        sched::computeTimeFrames(g, probe)->criticalSteps();
    it = results.emplace(ops, core::runMfsa(g, lib, o)).first;
  }
  if (!it->second.feasible) {
    state.SkipWithError(it->second.error.c_str());
    return nullptr;
  }
  return &it->second;
}

// STA alone over the cached datapath: the timing walk over every endpoint
// plus the one critical path it formats (no clock, so no finding).
void BM_ScaleSta(benchmark::State& state) {
  const int ops = static_cast<int>(state.range(0));
  const core::MfsaResult* r = cachedSynthesis(state, ops);
  if (r == nullptr) return;
  for (auto _ : state) {
    const auto t = analysis::timing::analyzeTiming(r->datapath);
    benchmark::DoNotOptimize(t.worstSlackNs);
  }
  state.counters["ops"] = ops;
}
BENCHMARK(BM_ScaleSta)->Arg(10000)->Arg(100000)->Unit(benchmark::kMillisecond);

// The structural datapath lint (`synth`'s "verification" line) alone.
void BM_ScaleVerify(benchmark::State& state) {
  const int ops = static_cast<int>(state.range(0));
  const core::MfsaResult* r = cachedSynthesis(state, ops);
  if (r == nullptr) return;
  sched::Constraints c;
  c.timeSteps = r->steps;
  for (auto _ : state) {
    const auto bad =
        rtl::verifyDatapath(r->datapath, c, rtl::DesignStyle::Unrestricted);
    benchmark::DoNotOptimize(bad.size());
  }
  state.counters["ops"] = ops;
}
BENCHMARK(BM_ScaleVerify)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

/// The three checkers that read the controller and its ROM: both are built
/// outside the timed loop, so a row times the checker alone.
template <typename Check>
void timeControllerCheck(benchmark::State& state, Check check) {
  const int ops = static_cast<int>(state.range(0));
  const core::MfsaResult* r = cachedSynthesis(state, ops);
  if (r == nullptr) return;
  const rtl::ControllerFsm fsm = rtl::buildController(r->datapath);
  const rtl::MicrocodeRom rom = rtl::buildMicrocode(r->datapath, fsm);
  for (auto _ : state) benchmark::DoNotOptimize(check(r->datapath, fsm, rom));
  state.counters["ops"] = ops;
}

// Translation validation (`prove`) alone.
void BM_ScaleProve(benchmark::State& state) {
  timeControllerCheck(state, [](const auto& d, const auto& fsm,
                                const auto& rom) {
    return analysis::proveDatapath(d, fsm, rom).size();
  });
}
BENCHMARK(BM_ScaleProve)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// The definedness audit alone, one worker.
void BM_ScaleAudit(benchmark::State& state) {
  timeControllerCheck(state, [](const auto& d, const auto& fsm,
                                const auto& rom) {
    return analysis::audit::auditDesign(d, fsm, rom).report.size();
  });
}
BENCHMARK(BM_ScaleAudit)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// The value-range analysis alone, one worker.
void BM_ScaleRange(benchmark::State& state) {
  timeControllerCheck(state, [](const auto& d, const auto& fsm,
                                const auto& rom) {
    return analysis::range::analyzeDesignRanges(d, fsm, rom).report.size();
  });
}
BENCHMARK(BM_ScaleRange)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
