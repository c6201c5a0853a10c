// Quickstart: build a small DFG with the fluent API, schedule it with MFS
// under a time constraint, print the schedule, then run MFSA to get a full
// RTL structure with its cost breakdown.
#include <cstdio>

#include "analysis/sched_rules.h"
#include "celllib/ncr_like.h"
#include "core/mfs.h"
#include "core/mfsa.h"
#include "dfg/builder.h"
#include "rtl/controller.h"

int main() {
  using namespace mframe;

  // y = (a + b) * (c - d);  flag = y < limit
  dfg::Builder b("quickstart");
  const auto a = b.input("a");
  const auto bb = b.input("b");
  const auto c = b.input("c");
  const auto d = b.input("d");
  const auto limit = b.input("limit");
  const auto s = b.add(a, bb, "sum");
  const auto t = b.sub(c, d, "diff");
  const auto y = b.mul(s, t, "y");
  const auto f = b.lt(y, limit, "flag");
  b.output(y, "y");
  b.output(f, "flag");
  dfg::Dfg g = std::move(b).build();

  // --- MFS: balanced schedule in 3 control steps -------------------------
  core::MfsOptions mo;
  mo.constraints.timeSteps = 3;
  const core::MfsResult mfs = core::runMfs(g, mo);
  if (!mfs.feasible) {
    std::printf("MFS failed: %s\n", mfs.error.c_str());
    return 1;
  }
  std::printf("== MFS ==\n%s", mfs.schedule.toString().c_str());
  const auto violations = analysis::lintSchedule(mfs.schedule, mo.constraints);
  std::printf("schedule verification: %s\n",
              violations.empty()
                  ? "clean"
                  : violations.diagnostics().front().message.c_str());

  // --- MFSA: schedule + allocation against the NCR-like library ----------
  const celllib::CellLibrary lib = celllib::ncrLike();
  core::MfsaOptions ao;
  ao.constraints.timeSteps = 3;
  const core::MfsaResult mfsa = core::runMfsa(g, lib, ao);
  if (!mfsa.feasible) {
    std::printf("MFSA failed: %s\n", mfsa.error.c_str());
    return 1;
  }
  std::printf("\n== MFSA ==\nALUs: %s\n%s\n",
              mfsa.datapath.aluSummary().c_str(), mfsa.cost.toString().c_str());

  const rtl::ControllerFsm fsm = rtl::buildController(mfsa.datapath);
  std::printf("\n%s", fsm.toString(g).c_str());
  return 0;
}
