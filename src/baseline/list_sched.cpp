#include "baseline/list_sched.h"

#include <algorithm>
#include <map>

#include "core/frames.h"
#include "core/grid.h"
#include "sched/timeframes.h"
#include "trace/trace.h"
#include "util/strings.h"

namespace mframe::baseline {

namespace {
using dfg::FuType;
using dfg::NodeId;
}  // namespace

ListSchedResult runListScheduling(const dfg::Dfg& g, const sched::Constraints& c) {
  const trace::Span span("list");
  ListSchedResult res;
  if (auto err = g.validate()) {
    res.error = "invalid DFG: " + *err;
    return res;
  }
  if (auto why = core::unschedulableReason(g, c, c.pipelinedFus)) {
    res.error = *why;
    return res;
  }

  // Static priorities from mobility at the critical-path schedule length.
  sched::Constraints tfc;
  tfc.allowChaining = false;
  std::string tfError;
  const auto tf = computeTimeFrames(g, tfc, &tfError);
  if (!tf) {
    res.error = tfError;
    return res;
  }

  auto limitOf = [&](FuType t) {
    auto it = c.fuLimit.find(t);
    return it == c.fuLimit.end() ? 1 : it->second;
  };

  sched::Schedule s(g);
  core::Grid grid(g, c);

  const auto ops = g.operations();
  std::map<NodeId, int> remainingPreds;
  for (NodeId id : ops) remainingPreds[id] = static_cast<int>(g.opPreds(id).size());

  std::vector<NodeId> ready;
  for (NodeId id : ops)
    if (remainingPreds[id] == 0) ready.push_back(id);

  std::size_t placed = 0;
  const int maxSteps = static_cast<int>(ops.size()) * 8 + 8;
  for (int step = 1; placed < ops.size() && step <= maxSteps; ++step) {
    // Highest priority first: low mobility, then low ALAP.
    std::sort(ready.begin(), ready.end(), [&](NodeId a, NodeId b) {
      if (tf->mobility(a) != tf->mobility(b))
        return tf->mobility(a) < tf->mobility(b);
      if (tf->alap(a) != tf->alap(b)) return tf->alap(a) < tf->alap(b);
      return a < b;
    });

    std::vector<NodeId> issuedNow;
    for (NodeId id : ready) {
      // Predecessors finishing at or after this step block the issue.
      bool depsOk = true;
      for (NodeId p : g.opPreds(id))
        if (s.stepOf(p) + g.node(p).cycles - 1 >= step) depsOk = false;
      if (!depsOk) continue;

      const int col =
          grid.placeFirstFree(id, step, limitOf(dfg::fuTypeOf(g.kindOf(id))));
      if (col == 0) continue;
      s.place(id, step, col);
      issuedNow.push_back(id);
      ++placed;
    }
    for (NodeId id : issuedNow) {
      ready.erase(std::remove(ready.begin(), ready.end(), id), ready.end());
      for (NodeId sc : g.opSuccs(id))
        if (--remainingPreds[sc] == 0) ready.push_back(sc);
    }
  }
  if (placed < ops.size()) {
    // Ids are topological, so every predecessor of the first unplaced op was
    // placed: the op itself found no free cell in any step.
    const NodeId stuck = *std::find_if(
        ops.begin(), ops.end(), [&](NodeId id) { return !s.isPlaced(id); });
    const FuType type = dfg::fuTypeOf(g.kindOf(stuck));
    const std::string name(dfg::fuTypeName(type));
    res.error = util::format(
        "'%s' (%s) found no free unit in %d steps: the %s budget is %d at "
        "latency %d",
        g.node(stuck).name.c_str(), name.c_str(), maxSteps, name.c_str(),
        limitOf(type), c.latency);
    return res;
  }

  int steps = 0;
  for (NodeId id : ops)
    steps = std::max(steps, s.stepOf(id) + g.node(id).cycles - 1);
  s.setNumSteps(steps);
  res.schedule = std::move(s);
  res.steps = steps;
  res.feasible = true;
  return res;
}

}  // namespace mframe::baseline
