#include "baseline/asap_sched.h"

#include "core/frames.h"
#include "core/grid.h"
#include "sched/timeframes.h"
#include "trace/trace.h"

namespace mframe::baseline {

AsapResult runAsap(const dfg::Dfg& g, const sched::Constraints& c) {
  const trace::Span span("asap");
  AsapResult res;
  if (auto err = g.validate()) {
    res.error = "invalid DFG: " + *err;
    return res;
  }
  if (auto why = core::unschedulableReason(g, c, c.pipelinedFus)) {
    res.error = *why;
    return res;
  }
  std::string tfError;
  sched::Constraints probe = c;
  probe.timeSteps = 0;  // unconstrained: pure ASAP
  const auto tf = computeTimeFrames(g, probe, &tfError);
  if (!tf) {
    res.error = tfError;
    return res;
  }

  sched::Schedule s(g);
  s.setNumSteps(tf->criticalSteps());
  // One column per op always suffices: ops longer than the latency on an
  // unpipelined type, the only ones no empty column holds, were refused.
  core::Grid grid(g, c);
  const int maxCol = static_cast<int>(g.size());
  const auto order = *g.topoOrder();
  for (dfg::NodeId id : order)
    if (dfg::isSchedulable(g.kindOf(id)))
      s.place(id, tf->asap(id), grid.placeFirstFree(id, tf->asap(id), maxCol));
  res.steps = tf->criticalSteps();
  res.schedule = std::move(s);
  res.feasible = true;
  return res;
}

}  // namespace mframe::baseline
