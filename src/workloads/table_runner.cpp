#include "workloads/table_runner.h"

#include <chrono>

#include "analysis/sched_rules.h"
#include "core/mfs.h"
#include "core/mfsa.h"
#include "pipeline/structural.h"
#include "rtl/verify.h"
#include "util/strings.h"

namespace mframe::workloads {

namespace {

double msSince(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

Table1Row runOne(const BenchmarkCase& bc, int cs, const std::string& variant,
                 bool structural, int latency) {
  Table1Row row;
  row.exampleId = bc.id;
  row.design = bc.graph.name();
  row.variant = variant;
  row.timeSteps = cs;

  core::MfsOptions o;
  o.constraints = bc.constraints;
  if (structural)
    o.constraints = pipeline::withStructuralPipelining(
        o.constraints, {dfg::FuType::Multiplier});
  o.constraints.timeSteps = cs;
  o.constraints.latency = latency;

  const auto t0 = std::chrono::steady_clock::now();
  const auto r = core::runMfs(bc.graph, o);
  row.milliseconds = msSince(t0);
  row.feasible = r.feasible;
  if (r.feasible) {
    row.fuCount = r.fuCount;
    row.verified = analysis::lintSchedule(r.schedule, o.constraints).empty();
  }
  return row;
}

}  // namespace

std::vector<Table1Row> runTable1(const std::vector<BenchmarkCase>& suite) {
  std::vector<Table1Row> rows;
  for (const auto& bc : suite) {
    for (int cs : bc.timeSweep)
      rows.push_back(runOne(bc, cs, "plain", false, 0));
    if (bc.functionalLatency > 0)
      rows.push_back(runOne(bc, bc.timeSweep.back(),
                            util::format("F (L=%d)", bc.functionalLatency),
                            false, bc.functionalLatency));
    if (bc.structuralPipelining)
      for (int cs : bc.timeSweep) rows.push_back(runOne(bc, cs, "S", true, 0));
  }
  return rows;
}

std::vector<Table2Row> runTable2(const std::vector<BenchmarkCase>& suite,
                                 const celllib::CellLibrary& lib) {
  std::vector<Table2Row> rows;
  for (const auto& bc : suite) {
    for (int styleIdx = 1; styleIdx <= 2; ++styleIdx) {
      Table2Row row;
      row.exampleId = bc.id;
      row.design = bc.graph.name();
      row.style = styleIdx;
      row.timeSteps = bc.timeSweep.front();

      core::MfsaOptions o;
      o.constraints = bc.constraints;
      o.constraints.timeSteps = row.timeSteps;
      o.style = styleIdx == 1 ? rtl::DesignStyle::Unrestricted
                              : rtl::DesignStyle::NoSelfLoop;
      const auto t0 = std::chrono::steady_clock::now();
      const auto r = core::runMfsa(bc.graph, lib, o);
      row.milliseconds = msSince(t0);
      row.feasible = r.feasible;
      if (r.feasible) {
        row.aluSummary = r.datapath.aluSummary();
        row.cost = r.cost;
        row.verified =
            rtl::verifyDatapath(r.datapath, o.constraints, o.style).empty();
      }
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

}  // namespace mframe::workloads
