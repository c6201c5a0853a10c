#include "sched/stitch.h"

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "analysis/sched_rules.h"
#include "util/strings.h"

namespace mframe::sched {

namespace {

/// True when `full` id is a cone member.
bool isMember(const dfg::ConeCut& cut, dfg::NodeId id) {
  return cut.toCone.count(id) > 0;
}

}  // namespace

std::optional<StitchResult> stitchSchedule(const Schedule& full,
                                           const Constraints& c,
                                           const dfg::ConeCut& cut,
                                           const Schedule& coneSched,
                                           std::string* error) {
  const dfg::Dfg& g = full.graph();

  // Original window of the cone members in the full schedule.
  int oldEnd = 0;
  for (const auto& [fid, cid] : cut.toCone) {
    (void)cid;
    oldEnd = std::max(oldEnd, full.endStepOf(fid));
  }

  // Earliest base step honoring every frontier dependence: a member reading
  // an out-of-cone producer must start strictly after the producer finishes
  // (the boundary pin is conservative — no chaining across it).
  int base = 1;
  for (const auto& [fid, cid] : cut.toCone) {
    for (dfg::NodeId in : g.node(fid).inputs) {
      if (isMember(cut, in) || !dfg::isSchedulable(g.node(in).kind)) continue;
      const int coneStep = coneSched.stepOf(cid);
      base = std::max(base, full.endStepOf(in) + 2 - coneStep);
    }
  }

  // New placements for the members; everything else starts from the old
  // placement and is repaired below.
  Schedule out(g);
  int newEnd = 0;
  for (const auto& [fid, cid] : cut.toCone) {
    const int step = base - 1 + coneSched.stepOf(cid);
    out.place(fid, step, coneSched.columnOf(cid));
    newEnd = std::max(newEnd, base - 1 + coneSched.endStepOf(cid));
  }
  const int delta = std::max(0, newEnd - oldEnd);

  // Repair pass over non-members in id (topological) order: shift the tail
  // past the old window by the cone's growth, then push each op late enough
  // for its (possibly moved) producers. A consumer that chained with its
  // producer (same end step) keeps chaining; any other edge needs a full
  // step between them.
  for (const dfg::Node& n : g.nodes()) {
    if (!dfg::isSchedulable(n.kind) || isMember(cut, n.id)) continue;
    if (!full.isPlaced(n.id)) {
      if (error != nullptr)
        *error = util::format("stitch: operation '%s' is unplaced in the "
                              "enclosing schedule", n.name.c_str());
      return std::nullopt;
    }
    int start = full.stepOf(n.id);
    if (start > oldEnd) start += delta;
    for (dfg::NodeId in : n.inputs) {
      if (!dfg::isSchedulable(g.node(in).kind)) continue;
      const bool chained = full.stepOf(n.id) == full.endStepOf(in) &&
                           c.allowChaining;
      const int producerEnd = out.isPlaced(in)
                                  ? out.endStepOf(in)
                                  : full.endStepOf(in);
      start = std::max(start, chained ? producerEnd : producerEnd + 1);
    }
    out.place(n.id, start, full.columnOf(n.id));
  }

  // Re-pack FU columns left-edge style: per type, order by (start, original
  // column, id) and drop each op into the lowest column free over its whole
  // execution interval. Deterministic, and occupancy-clean for plain
  // (unfolded, unpipelined) schedules; anything subtler is caught by the
  // verifier below.
  std::map<dfg::FuType, std::vector<dfg::NodeId>> byType;
  for (const dfg::NodeId op : g.operations())
    byType[dfg::fuTypeOf(g.node(op).kind)].push_back(op);
  for (auto& [type, ops] : byType) {
    (void)type;
    std::stable_sort(ops.begin(), ops.end(),
                     [&](dfg::NodeId a, dfg::NodeId b) {
                       return std::make_tuple(out.stepOf(a), full.columnOf(a),
                                              a) <
                              std::make_tuple(out.stepOf(b), full.columnOf(b),
                                              b);
                     });
    std::vector<int> lastEnd;  // per column (0-based), last occupied step
    for (dfg::NodeId op : ops) {
      const int start = out.stepOf(op);
      std::size_t col = 0;
      while (col < lastEnd.size() && lastEnd[col] >= start) ++col;
      if (col == lastEnd.size()) lastEnd.push_back(0);
      lastEnd[col] = start + g.node(op).cycles - 1;
      out.place(op, start, static_cast<int>(col) + 1);
    }
  }

  int steps = 0;
  for (const dfg::NodeId op : g.operations())
    steps = std::max(steps, out.endStepOf(op));
  out.setNumSteps(std::max(steps, 1));

  Constraints check = c;
  if (check.timeSteps != 0 && out.numSteps() > check.timeSteps)
    check.timeSteps = out.numSteps();
  const analysis::LintReport violations = analysis::lintSchedule(out, check);
  if (!violations.empty()) {
    if (error != nullptr)
      *error = "stitch: merged schedule invalid: " +
               violations.diagnostics().front().message;
    return std::nullopt;
  }

  StitchResult r;
  r.schedule = std::move(out);
  r.base = base;
  r.delta = delta;
  return r;
}

}  // namespace mframe::sched
