// Ablation B — the priority rules of Section 3.2 and the multicycle
// refinement of Section 5.3: compare the paper's mobility rule (with
// reversal), the rule without reversal, and raw insertion order, over the
// suite and a batch of random DFGs. The metric is the total FU count of the
// balanced schedule (lower = better).
#include <cstdio>

#include "analysis/sched_rules.h"
#include "core/mfs.h"
#include "util/strings.h"
#include "util/table.h"
#include "workloads/benchmarks.h"
#include "workloads/random_dfg.h"

namespace {

using namespace mframe;

int totalFu(const core::MfsResult& r) {
  int total = 0;
  for (const auto& [t, n] : r.fuCount) total += n;
  return total;
}

std::string runCell(const dfg::Dfg& g, const sched::Constraints& base, int cs,
                    sched::PriorityRule rule) {
  core::MfsOptions o;
  o.constraints = base;
  o.constraints.timeSteps = cs;
  o.priorityRule = rule;
  const auto r = core::runMfs(g, o);
  if (!r.feasible) return "inf";
  const bool ok = analysis::lintSchedule(r.schedule, o.constraints).empty();
  return util::format("%d%s", totalFu(r), ok ? "" : "!");
}

}  // namespace

int main() {
  std::printf("Ablation: priority rules (total FU count; lower is better).\n"
              "mobility = the paper's rule incl. the Section-5.3 multicycle "
              "reversal;\nno-reverse = plain mobility; insertion = graph "
              "order (no intelligence).\n\n");

  util::Table t("Priority-rule ablation");
  t.setHeader({"design", "T", "mobility", "no-reverse", "insertion"});
  for (const auto& bc : workloads::paperSuite()) {
    const int cs = bc.timeSweep.front();
    t.addRow({bc.graph.name(), std::to_string(cs),
              runCell(bc.graph, bc.constraints, cs, sched::PriorityRule::Mobility),
              runCell(bc.graph, bc.constraints, cs,
                      sched::PriorityRule::MobilityNoReverse),
              runCell(bc.graph, bc.constraints, cs,
                      sched::PriorityRule::InsertionOrder)});
  }

  // Random multicycle-heavy graphs, where the reversal rule matters most.
  int winsMobility = 0, winsInsertion = 0, ties = 0;
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    workloads::RandomDfgOptions o;
    o.seed = seed;
    o.numOps = 32;
    o.mulPercent = 40;
    o.twoCyclePercent = 60;
    const dfg::Dfg g = workloads::randomDfg(o);
    sched::Constraints probe;
    const auto tf = sched::computeTimeFrames(g, probe);
    const int cs = tf->criticalSteps() + 2;

    core::MfsOptions mo;
    mo.constraints.timeSteps = cs;
    mo.priorityRule = sched::PriorityRule::Mobility;
    const auto rm = core::runMfs(g, mo);
    mo.priorityRule = sched::PriorityRule::InsertionOrder;
    const auto ri = core::runMfs(g, mo);
    if (!rm.feasible || !ri.feasible) continue;
    if (totalFu(rm) < totalFu(ri))
      ++winsMobility;
    else if (totalFu(ri) < totalFu(rm))
      ++winsInsertion;
    else
      ++ties;
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("Random 2-cycle-heavy DFGs (20 seeds): mobility wins %d, "
              "insertion wins %d, ties %d.\n",
              winsMobility, winsInsertion, ties);
  return 0;
}
