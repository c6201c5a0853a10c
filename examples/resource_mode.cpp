// Resource-constrained synthesis (the dual problem): fix the hardware
// budget, minimize the schedule length — MFS with V = cs*x + y, and
// resource-constrained MFSA growing the schedule until the ALU budget fits.
#include <cstdio>

#include "analysis/sched_rules.h"
#include "celllib/ncr_like.h"
#include "core/mfs.h"
#include "core/mfsa.h"
#include "rtl/verify.h"
#include "util/strings.h"
#include "workloads/benchmarks.h"

int main() {
  using namespace mframe;
  const dfg::Dfg g = workloads::diffeq();
  std::printf("HAL diffeq under shrinking multiplier budgets:\n\n");

  for (int muls : {3, 2, 1}) {
    core::MfsOptions o;
    o.mode = core::MfsLiapunov::Mode::ResourceConstrained;
    o.constraints.fuLimit[dfg::FuType::Multiplier] = muls;
    o.constraints.fuLimit[dfg::FuType::Adder] = 1;
    o.constraints.fuLimit[dfg::FuType::Subtractor] = 1;
    o.constraints.fuLimit[dfg::FuType::Comparator] = 1;
    const auto r = core::runMfs(g, o);
    if (!r.feasible) {
      std::printf("  %d multiplier(s): infeasible (%s)\n", muls, r.error.c_str());
      continue;
    }
    sched::Constraints vc = o.constraints;
    vc.timeSteps = r.steps;
    const bool ok = analysis::lintSchedule(r.schedule, vc).empty();
    std::printf("  %d multiplier(s): %d control steps (%s)\n", muls, r.steps,
                ok ? "valid" : "INVALID");
  }

  // Resource-constrained MFSA: cap the multiplier columns and let the
  // schedule stretch until the allocation fits.
  const celllib::CellLibrary lib = celllib::ncrLike();
  std::printf("\nMFSA with at most one multiplier-capable ALU:\n");
  core::MfsaOptions ao;
  ao.constraints.fuLimit[dfg::FuType::Multiplier] = 1;
  const auto r = core::runMfsaResourceConstrained(g, lib, ao);
  if (!r.feasible) {
    std::printf("  failed: %s\n", r.error.c_str());
    return 1;
  }
  sched::Constraints vc;
  vc.timeSteps = r.steps;
  const auto bad =
      rtl::verifyDatapath(r.datapath, vc, rtl::DesignStyle::Unrestricted);
  std::printf("  %d steps, ALUs %s\n  %s\n  RTL verification: %s\n", r.steps,
              r.datapath.aluSummary().c_str(), r.cost.toString().c_str(),
              bad.empty() ? "clean" : bad.front().c_str());
  return 0;
}
