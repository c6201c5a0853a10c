#include "analysis/analyze.h"

#include "analysis/rules.h"
#include "core/mfs.h"
#include "dfg/stats.h"
#include "rtl/datapath.h"
#include "trace/trace.h"
#include "util/strings.h"

namespace mframe::analysis {

AnalyzeResult analyzeDesign(const dfg::Dfg& g, const celllib::CellLibrary& lib,
                            const AnalyzeOptions& opts) {
  const trace::Span span("analyze");
  AnalyzeResult r;
  r.dataflow = dataflow::lintDataflow(g);
  r.report.merge(r.dataflow.report);
  if (!opts.runTiming) return r;

  if (g.operations().empty()) {
    r.timingSkip = "design has no schedulable operations";
    return r;
  }

  core::MfsOptions mfs;
  mfs.constraints = opts.constraints;
  if (mfs.constraints.timeSteps <= 0)
    mfs.constraints.timeSteps =
        opts.steps > 0 ? opts.steps : dfg::computeStats(g).criticalPath;
  const core::MfsResult sched = core::runMfs(g, mfs);
  if (!sched.feasible) {
    r.timingSkip = "schedule infeasible: " + sched.error;
    return r;
  }

  if (auto slack = sched::analyzeSlack(sched.schedule, mfs.constraints)) {
    r.slack = *std::move(slack);
    r.slackRan = true;
  }

  try {
    const rtl::Datapath dp = rtl::buildDatapath(
        g, lib, sched.schedule,
        rtl::bindByColumns(g, lib, sched.schedule, mfs.constraints));
    r.timing = timing::analyzeTiming(
        dp, {.clockNs = opts.constraints.clockNs, .clockSet = opts.clockSet});
    r.timingRan = true;
    r.report.merge(r.timing.diagnostics);
  } catch (const std::exception& e) {
    r.timingSkip = util::format("datapath construction failed: %s", e.what());
  }
  return r;
}

std::string AnalyzeResult::renderText(const dfg::Dfg& g) const {
  std::string out = util::format(
      "dataflow: %d fixpoint visit(s); %zu foldable, %zu dead, %zu duplicate, "
      "%zu over-wide\n",
      dataflow.engineVisits, dataflow.report.byRule(kOptFoldableConst).size(),
      dataflow.report.byRule(kOptDeadOp).size(),
      dataflow.report.byRule(kOptDuplicateExpr).size(),
      dataflow.report.byRule(kOptOverWideOp).size());
  if (timingRan)
    out += timing.toString(g);
  else if (!timingSkip.empty())
    out += "timing: skipped (" + timingSkip + ")\n";
  if (slackRan) out += slack.toString(g);
  out += report.renderText();
  return out;
}

}  // namespace mframe::analysis
