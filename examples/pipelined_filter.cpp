// Pipelining showcase (Section 5.5): the AR lattice filter with 2-cycle
// multiplications, scheduled (a) plain, (b) with structurally pipelined
// multipliers, and (c) functionally pipelined (folded) at several latencies.
#include <cstdio>

#include "analysis/sched_rules.h"
#include "core/mfs.h"
#include "pipeline/functional.h"
#include "pipeline/structural.h"
#include "workloads/benchmarks.h"

namespace {

std::string fuString(const std::map<mframe::dfg::FuType, int>& fus) {
  std::string out;
  for (const auto& [t, n] : fus)
    out += std::to_string(n) + std::string(mframe::dfg::fuTypeSymbol(t)) + " ";
  return out;
}

}  // namespace

int main() {
  using namespace mframe;
  const dfg::Dfg g = workloads::arLattice();
  std::printf("AR lattice filter: %zu operations (16 two-cycle mul, 12 add)\n",
              g.operations().size());

  // (a) plain multicycle scheduling.
  for (int cs : {13, 14, 17}) {
    core::MfsOptions mo;
    mo.constraints.timeSteps = cs;
    const auto r = core::runMfs(g, mo);
    if (!r.feasible) {
      std::printf("  plain T=%d: infeasible (%s)\n", cs, r.error.c_str());
      continue;
    }
    const auto bad = analysis::lintSchedule(r.schedule, mo.constraints);
    std::printf("  plain T=%d: %s(%s)\n", cs, fuString(r.fuCount).c_str(),
                bad.empty() ? "valid"
                            : bad.diagnostics().front().message.c_str());
  }

  // (b) structurally pipelined multipliers: a multiplier accepts a new
  // operation every step, so fewer instances cover the same load.
  for (int cs : {13, 14, 17}) {
    core::MfsOptions mo;
    mo.constraints =
        pipeline::withStructuralPipelining({}, {dfg::FuType::Multiplier});
    mo.constraints.timeSteps = cs;
    const auto r = core::runMfs(g, mo);
    if (!r.feasible) {
      std::printf("  structural T=%d: infeasible\n", cs);
      continue;
    }
    const auto bad = analysis::lintSchedule(r.schedule, mo.constraints);
    std::printf("  structural T=%d: %s(%s)\n", cs, fuString(r.fuCount).c_str(),
                bad.empty() ? "valid"
                            : bad.diagnostics().front().message.c_str());
  }

  // (c) functional pipelining: a new sample enters every L steps; FU demand
  // is set by the busiest residue class, not by the schedule length.
  for (int latency : {4, 6, 8}) {
    const auto r = pipeline::runFunctionalPipelinedMfs(g, 16, latency);
    if (!r.feasible) {
      std::printf("  functional L=%d: infeasible (%s)\n", latency,
                  r.error.c_str());
      continue;
    }
    sched::Constraints vc;
    vc.timeSteps = 16;
    vc.latency = latency;
    const auto bad = analysis::lintSchedule(r.mfs.schedule, vc);
    std::printf("  functional L=%d (T=16): %s(%s)\n", latency,
                fuString(r.fuCount).c_str(),
                bad.empty() ? "valid"
                            : bad.diagnostics().front().message.c_str());
  }
  return 0;
}
