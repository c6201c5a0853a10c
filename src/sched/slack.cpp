#include "sched/slack.h"

#include "util/strings.h"

namespace mframe::sched {

std::optional<SlackReport> analyzeSlack(const Schedule& s, const Constraints& c,
                                        std::string* error) {
  if (s.sharedGraph() == nullptr) {
    if (error != nullptr) *error = "analyzeSlack: schedule has no graph";
    return std::nullopt;
  }
  const dfg::Dfg& g = s.graph();
  for (dfg::NodeId id : g.operations()) {
    if (!s.isPlaced(id)) {
      if (error != nullptr)
        *error = util::format("analyzeSlack: operation '%s' is unplaced",
                              g.node(id).name.c_str());
      return std::nullopt;
    }
  }

  Constraints cc = c;
  cc.timeSteps = s.numSteps();
  const auto tf = computeTimeFrames(g, cc);
  if (!tf) {
    if (error != nullptr)
      *error = util::format(
          "analyzeSlack: no time frames at the schedule's own length "
          "(%d steps) — the schedule is infeasible under these constraints",
          s.numSteps());
    return std::nullopt;
  }

  SlackReport rep;
  double total = 0.0;
  for (dfg::NodeId id : g.operations()) {
    OpSlack os;
    os.op = id;
    os.earlySlack = s.stepOf(id) - tf->asap(id);
    os.lateSlack = tf->alap(id) - s.stepOf(id);
    if (os.critical()) ++rep.criticalCount;
    total += os.earlySlack + os.lateSlack;
    rep.ops.push_back(os);
  }
  if (!rep.ops.empty())
    rep.meanTotalSlack = total / static_cast<double>(rep.ops.size());
  return rep;
}

std::string SlackReport::toString(const dfg::Dfg& g) const {
  std::string out = util::format(
      "slack: %d critical op(s) of %zu, mean total slack %.2f steps\n",
      criticalCount, ops.size(), meanTotalSlack);
  for (const OpSlack& os : ops)
    if (os.critical())
      out += util::format("  critical: %s\n", g.node(os.op).name.c_str());
  return out;
}

std::string SlackReport::renderJson(const dfg::Dfg& g) const {
  std::string out = "{\n  \"schema\": 1,\n";
  out += util::format("  \"criticalCount\": %d,\n", criticalCount);
  out += util::format("  \"meanTotalSlack\": %.4f,\n", meanTotalSlack);
  out += "  \"ops\": [";
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const OpSlack& os = ops[i];
    out += i == 0 ? "\n" : ",\n";
    out += util::format(
        "    {\"op\": \"%s\", \"early\": %d, \"late\": %d, "
        "\"critical\": %s}",
        util::jsonEscape(g.node(os.op).name).c_str(), os.earlySlack,
        os.lateSlack,
        os.critical() ? "true" : "false");
  }
  out += ops.empty() ? "]\n" : "\n  ]\n";
  out += "}";
  return out;
}

}  // namespace mframe::sched
