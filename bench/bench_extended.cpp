// Extended-suite sweep (beyond the paper's six examples): the FDCT-like and
// IIR designs through MFS and MFSA, plus the functional-pipelining
// throughput curve (latency vs achieved FU demand vs the analytic lower
// bound) for the DSP workloads — the trade-off Section 5.5.2's balancing is
// for.
#include <cstdio>

#include "analysis/sched_rules.h"
#include "celllib/ncr_like.h"
#include "core/mfs.h"
#include "core/mfsa.h"
#include "pipeline/analysis.h"
#include "rtl/verify.h"
#include "sched/report.h"
#include "util/strings.h"
#include "util/table.h"
#include "workloads/benchmarks.h"

namespace {

using namespace mframe;

std::string fuString(const std::map<dfg::FuType, int>& fus) {
  std::vector<std::string> parts;
  for (const auto& [t, n] : fus) {
    std::string p;
    for (int i = 0; i < n; ++i) p += std::string(dfg::fuTypeSymbol(t));
    parts.push_back(p);
  }
  return util::join(parts, ",");
}

}  // namespace

int main() {
  const celllib::CellLibrary lib = celllib::ncrLike();

  // -- MFS + MFSA on the extended designs -----------------------------------
  util::Table t("Extended workloads — MFS and MFSA");
  t.setHeader({"design", "T", "MFS FU mix", "util peak reg", "MFSA ALUs",
               "cost um^2", "check"});
  struct Case {
    dfg::Dfg g;
    std::vector<int> sweep;
  };
  const Case cases[] = {{workloads::fdctLike(), {6, 8, 10}},
                        {workloads::iirBiquads(), {11, 13, 16}},
                        {workloads::dct2d4x4(), {6, 10, 16}}};
  for (const auto& c : cases) {
    for (int cs : c.sweep) {
      core::MfsOptions mo;
      mo.constraints.timeSteps = cs;
      const auto mfs = core::runMfs(c.g, mo);
      core::MfsaOptions ao;
      ao.constraints.timeSteps = cs;
      const auto mfsa = core::runMfsa(c.g, lib, ao);
      if (!mfs.feasible || !mfsa.feasible) {
        t.addRow({c.g.name(), std::to_string(cs), "infeasible"});
        continue;
      }
      const bool ok =
          analysis::lintSchedule(mfs.schedule, mo.constraints).empty() &&
          rtl::verifyDatapath(mfsa.datapath, ao.constraints,
                              rtl::DesignStyle::Unrestricted)
              .empty();
      const auto rep = sched::analyzeSchedule(mfs.schedule);
      t.addRow({c.g.name(), std::to_string(cs), fuString(mfs.fuCount),
                std::to_string(rep.peakLive), mfsa.datapath.aluSummary(),
                util::format("%.0f", mfsa.cost.total), ok ? "ok" : "INVALID"});
    }
    t.addSeparator();
  }
  std::printf("%s\n", t.render().c_str());

  // -- functional-pipelining throughput curves -------------------------------
  for (const auto* name : {"fir8", "fdct"}) {
    const dfg::Dfg g =
        std::string(name) == "fir8" ? workloads::fir8() : workloads::fdctLike();
    const int cs = 10;
    util::Table lt(util::format(
        "%s: latency vs multiplier demand (folded MFS, T=%d)", name, cs));
    lt.setHeader({"L", "feasible", "multipliers", "lower bound", "adders"});
    for (const auto& p : pipeline::latencySweep(g, cs)) {
      if (!p.feasible) {
        lt.addRow({std::to_string(p.latency), "no"});
        continue;
      }
      lt.addRow({std::to_string(p.latency), "yes",
                 std::to_string(p.fuCount.count(dfg::FuType::Multiplier)
                                    ? p.fuCount.at(dfg::FuType::Multiplier)
                                    : 0),
                 std::to_string(p.lowerBound.at(dfg::FuType::Multiplier)),
                 std::to_string(p.fuCount.count(dfg::FuType::Adder)
                                    ? p.fuCount.at(dfg::FuType::Adder)
                                    : 0)});
    }
    std::printf("%s\n", lt.render().c_str());
  }
  std::printf("Shape: achieved demand tracks the ceil(work/L) lower bound and "
              "falls monotonically as the initiation interval grows.\n");
  return 0;
}
