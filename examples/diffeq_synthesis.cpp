// Full synthesis of the HAL differential-equation benchmark: MFS schedule,
// MFSA RTL structure, controller FSM, and structural Verilog output —
// the complete flow the paper's SYNTEST integration describes (Section 6).
#include <cstdio>

#include "analysis/sched_rules.h"
#include "celllib/ncr_like.h"
#include "core/mfs.h"
#include "core/mfsa.h"
#include "dfg/dot.h"
#include "rtl/controller.h"
#include "rtl/verify.h"
#include "rtl/verilog.h"
#include "workloads/benchmarks.h"

int main(int argc, char** argv) {
  using namespace mframe;
  const bool emitVerilog = argc > 1 && std::string_view(argv[1]) == "--verilog";

  const dfg::Dfg g = workloads::diffeq();
  std::printf("HAL diffeq: %zu nodes, %zu operations\n", g.size(),
              g.operations().size());

  // MFS sweep over time constraints: watch the multiplier count fall.
  for (int cs : {4, 5, 6, 8}) {
    core::MfsOptions mo;
    mo.constraints.timeSteps = cs;
    const auto r = core::runMfs(g, mo);
    if (!r.feasible) {
      std::printf("  T=%d: infeasible (%s)\n", cs, r.error.c_str());
      continue;
    }
    std::string fus;
    for (const auto& [t, n] : r.fuCount)
      fus += std::to_string(n) + std::string(dfg::fuTypeSymbol(t)) + " ";
    const auto bad = analysis::lintSchedule(r.schedule, mo.constraints);
    std::printf("  T=%d: %s(%s)\n", cs, fus.c_str(),
                bad.empty() ? "valid"
                            : bad.diagnostics().front().message.c_str());
  }

  // MFSA at T=4 with the NCR-like library, both design styles.
  const celllib::CellLibrary lib = celllib::ncrLike();
  for (const auto style : {rtl::DesignStyle::Unrestricted,
                           rtl::DesignStyle::NoSelfLoop}) {
    core::MfsaOptions ao;
    ao.constraints.timeSteps = 4;
    ao.style = style;
    const auto r = core::runMfsa(g, lib, ao);
    if (!r.feasible) {
      std::printf("MFSA style %d failed: %s\n",
                  style == rtl::DesignStyle::Unrestricted ? 1 : 2,
                  r.error.c_str());
      return 1;
    }
    const auto bad = rtl::verifyDatapath(r.datapath, ao.constraints, style);
    std::printf("\nMFSA style %d: ALUs %s\n  %s\n  RTL verification: %s\n",
                style == rtl::DesignStyle::Unrestricted ? 1 : 2,
                r.datapath.aluSummary().c_str(), r.cost.toString().c_str(),
                bad.empty() ? "clean" : bad.front().c_str());

    if (style == rtl::DesignStyle::Unrestricted && emitVerilog) {
      const auto fsm = rtl::buildController(r.datapath);
      std::printf("\n%s\n", rtl::toVerilog(r.datapath, fsm).c_str());
    }
  }
  return 0;
}
