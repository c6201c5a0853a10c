// Case study: the 4x4 2-D DCT (96 operations) end to end — balanced
// scheduling across time constraints, functional pipelining throughput
// analysis, full MFSA synthesis and the schedule analytics report.
#include <cstdio>

#include "analysis/sched_rules.h"
#include "celllib/ncr_like.h"
#include "core/mfs.h"
#include "core/mfsa.h"
#include "pipeline/analysis.h"
#include "rtl/verify.h"
#include "sched/report.h"
#include "util/strings.h"
#include "workloads/benchmarks.h"

int main() {
  using namespace mframe;
  const dfg::Dfg g = workloads::dct2d4x4();
  std::printf("4x4 2-D DCT: %zu operations (32 mul, 64 add/sub), 16 inputs, "
              "16 outputs\n\n", g.operations().size());

  // Time-constraint sweep: watch the multiplier count collapse from the
  // frame-locked 16 at the critical path toward the balanced minimum.
  for (int cs : {6, 8, 10, 12, 16}) {
    core::MfsOptions o;
    o.constraints.timeSteps = cs;
    const auto r = core::runMfs(g, o);
    if (!r.feasible) {
      std::printf("  T=%2d: infeasible (%s)\n", cs, r.error.c_str());
      continue;
    }
    const bool ok = analysis::lintSchedule(r.schedule, o.constraints).empty();
    std::string fus;
    for (const auto& [t, n] : r.fuCount)
      fus += std::to_string(n) + std::string(dfg::fuTypeSymbol(t)) + " ";
    std::printf("  T=%2d: %s(%s)\n", cs, fus.c_str(), ok ? "valid" : "INVALID");
  }

  // Functional pipelining: a new 4x4 block every L steps.
  std::printf("\nthroughput (folded, T=12):\n");
  for (const auto& p : pipeline::latencySweep(g, 12)) {
    if (!p.feasible || p.latency > 6) continue;
    std::printf("  L=%d: %d multipliers (lower bound %d), %d adders\n",
                p.latency,
                p.fuCount.count(dfg::FuType::Multiplier)
                    ? p.fuCount.at(dfg::FuType::Multiplier) : 0,
                p.lowerBound.at(dfg::FuType::Multiplier),
                p.fuCount.count(dfg::FuType::Adder)
                    ? p.fuCount.at(dfg::FuType::Adder) : 0);
  }

  // Full synthesis at T=10 with the analytics report.
  const celllib::CellLibrary lib = celllib::ncrLike();
  core::MfsaOptions ao;
  ao.constraints.timeSteps = 10;
  const auto r = core::runMfsa(g, lib, ao);
  if (!r.feasible) {
    std::printf("MFSA failed: %s\n", r.error.c_str());
    return 1;
  }
  const auto bad = rtl::verifyDatapath(r.datapath, ao.constraints,
                                       rtl::DesignStyle::Unrestricted);
  std::printf("\nMFSA at T=10: ALUs %s\n%s\nRTL verification: %s\n\n",
              r.datapath.aluSummary().c_str(), r.cost.toString().c_str(),
              bad.empty() ? "clean" : bad.front().c_str());

  core::MfsOptions mo;
  mo.constraints.timeSteps = 10;
  const auto mfs = core::runMfs(g, mo);
  if (mfs.feasible)
    std::printf("%s", sched::analyzeSchedule(mfs.schedule).toString().c_str());
  return 0;
}
