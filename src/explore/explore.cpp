#include "explore/explore.h"

#include <algorithm>

#include "explore/thread_pool.h"
#include "sched/timeframes.h"
#include "trace/trace.h"
#include "util/strings.h"

namespace mframe::explore {

SweepSpec SweepSpec::defaults() {
  SweepSpec s;
  // steps stays empty: filled from the critical path per design.
  s.weights = {
      {1.0, 1.0, 1.0, 1.0},  // the paper's balanced default
      {1.0, 4.0, 1.0, 1.0},  // ALU-lean: merge into multifunction units
      {1.0, 1.0, 4.0, 4.0},  // interconnect/storage-lean
  };
  s.priorityRules = {sched::PriorityRule::Mobility,
                     sched::PriorityRule::MobilityNoReverse};
  s.interconnects = {core::InterconnectStyle::Mux,
                     core::InterconnectStyle::Bus};
  s.styles = {rtl::DesignStyle::Unrestricted, rtl::DesignStyle::NoSelfLoop};
  return s;
}

std::vector<Candidate> enumerateConfigs(const SweepSpec& spec,
                                        int criticalSteps) {
  SweepSpec s = spec;
  if (s.steps.empty()) {
    const int cp = std::max(1, criticalSteps);
    for (int k = 0; k < 4; ++k) s.steps.push_back(cp + k);
  }
  if (s.weights.empty()) s.weights.push_back({});
  if (s.priorityRules.empty())
    s.priorityRules.push_back(sched::PriorityRule::Mobility);
  if (s.interconnects.empty())
    s.interconnects.push_back(core::InterconnectStyle::Mux);
  if (s.styles.empty()) s.styles.push_back(rtl::DesignStyle::Unrestricted);

  std::vector<Candidate> out;
  out.reserve(s.steps.size() * s.weights.size() * s.priorityRules.size() *
              s.interconnects.size() * s.styles.size());
  for (int steps : s.steps)
    for (const core::MfsaWeights& w : s.weights)
      for (sched::PriorityRule pr : s.priorityRules)
        for (core::InterconnectStyle ic : s.interconnects)
          for (rtl::DesignStyle st : s.styles) {
            Candidate c;
            c.index = static_cast<int>(out.size());
            c.steps = steps;
            c.weights = w;
            c.priorityRule = pr;
            c.interconnect = ic;
            c.style = st;
            out.push_back(c);
          }
  return out;
}

ExploreResult explore(const dfg::Dfg& g, const celllib::CellLibrary& lib,
                      const SweepSpec& spec, int jobs) {
  const trace::Span span("explore");
  ExploreResult r;
  r.design = g.name();

  sched::Constraints probe = spec.base;
  probe.timeSteps = 0;
  std::string tfError;
  const auto tf = sched::computeTimeFrames(g, probe, &tfError);
  r.criticalSteps = tf ? tf->criticalSteps() : 0;

  r.candidates = enumerateConfigs(spec, r.criticalSteps);

  trace::bump(trace::Counter::ExploreConfigs, r.candidates.size());

  parallelFor(static_cast<int>(r.candidates.size()), std::max(1, jobs),
              [&](int i) {
                Candidate& cand = r.candidates[static_cast<std::size_t>(i)];
                core::MfsaOptions opt;
                opt.constraints = spec.base;
                opt.constraints.timeSteps = cand.steps;
                opt.weights = cand.weights;
                opt.priorityRule = cand.priorityRule;
                opt.interconnect = cand.interconnect;
                opt.style = cand.style;
                const core::MfsaResult res = core::runMfsa(g, lib, opt);
                cand.feasible = res.feasible;
                cand.error = res.error;
                cand.restarts = res.restarts;
                if (res.feasible) cand.cost = res.cost;
              });

  // Merge: per step budget keep the cheapest design (lowest index on a cost
  // tie), then keep only the Pareto-minimal points — total area must
  // strictly improve as the step budget grows.
  std::vector<int> bestPerStep;
  for (const Candidate& c : r.candidates) {
    if (!c.feasible) continue;
    ++r.feasibleCount;
    trace::bump(trace::Counter::ExploreFeasible);
    const auto at = std::find_if(
        bestPerStep.begin(), bestPerStep.end(), [&](int idx) {
          return r.candidates[static_cast<std::size_t>(idx)].steps == c.steps;
        });
    if (at == bestPerStep.end()) {
      bestPerStep.push_back(c.index);
    } else if (c.cost.total <
               r.candidates[static_cast<std::size_t>(*at)].cost.total) {
      *at = c.index;
    }
  }
  std::sort(bestPerStep.begin(), bestPerStep.end(), [&](int a, int b) {
    return r.candidates[static_cast<std::size_t>(a)].steps <
           r.candidates[static_cast<std::size_t>(b)].steps;
  });
  double best = 0.0;
  bool first = true;
  for (int idx : bestPerStep) {
    const double total = r.candidates[static_cast<std::size_t>(idx)].cost.total;
    if (first || total < best) {
      r.frontier.push_back(idx);
      best = total;
      first = false;
    }
  }
  return r;
}

std::string_view priorityRuleName(sched::PriorityRule r) {
  switch (r) {
    case sched::PriorityRule::Mobility: return "mobility";
    case sched::PriorityRule::MobilityNoReverse: return "mobility-no-reverse";
    case sched::PriorityRule::InsertionOrder: return "insertion-order";
  }
  return "?";
}

std::string_view interconnectName(core::InterconnectStyle s) {
  return s == core::InterconnectStyle::Mux ? "mux" : "bus";
}

std::string_view designStyleName(rtl::DesignStyle s) {
  return s == rtl::DesignStyle::Unrestricted ? "unrestricted" : "no-self-loop";
}

namespace {

std::string jsonNumber(double v) { return util::format("%.10g", v); }

void appendConfig(std::string& out, const Candidate& c) {
  out += util::format(
      "{\"index\": %d, \"steps\": %d, "
      "\"weights\": [%s, %s, %s, %s], \"priority\": \"%s\", "
      "\"interconnect\": \"%s\", \"style\": \"%s\"}",
      c.index, c.steps, jsonNumber(c.weights.time).c_str(),
      jsonNumber(c.weights.alu).c_str(), jsonNumber(c.weights.mux).c_str(),
      jsonNumber(c.weights.reg).c_str(),
      std::string(priorityRuleName(c.priorityRule)).c_str(),
      std::string(interconnectName(c.interconnect)).c_str(),
      std::string(designStyleName(c.style)).c_str());
}

}  // namespace

std::string toJson(const ExploreResult& r) {
  std::string out;
  out += "{\n";
  out += util::format("  \"design\": \"%s\",\n",
                      util::jsonEscape(r.design).c_str());
  out += util::format("  \"criticalSteps\": %d,\n", r.criticalSteps);
  out += util::format("  \"configs\": %d,\n",
                      static_cast<int>(r.candidates.size()));
  out += util::format("  \"feasible\": %d,\n", r.feasibleCount);
  out += "  \"frontier\": [\n";
  for (std::size_t i = 0; i < r.frontier.size(); ++i) {
    const Candidate& c =
        r.candidates[static_cast<std::size_t>(r.frontier[i])];
    out += util::format(
        "    {\"steps\": %d, \"total\": %s, \"alu\": %s, \"reg\": %s, "
        "\"mux\": %s, \"aluCount\": %d, \"regCount\": %d, \"config\": ",
        c.steps, jsonNumber(c.cost.total).c_str(),
        jsonNumber(c.cost.aluArea).c_str(), jsonNumber(c.cost.regArea).c_str(),
        jsonNumber(c.cost.muxArea).c_str(), c.cost.aluCount, c.cost.regCount);
    appendConfig(out, c);
    out += i + 1 < r.frontier.size() ? "},\n" : "}\n";
  }
  out += "  ],\n";
  out += "  \"candidates\": [\n";
  for (std::size_t i = 0; i < r.candidates.size(); ++i) {
    const Candidate& c = r.candidates[i];
    if (c.feasible) {
      out += util::format(
          "    {\"index\": %d, \"steps\": %d, \"feasible\": true, "
          "\"total\": %s, \"restarts\": %d}",
          c.index, c.steps, jsonNumber(c.cost.total).c_str(), c.restarts);
    } else {
      out += util::format(
          "    {\"index\": %d, \"steps\": %d, \"feasible\": false, "
          "\"error\": \"%s\"}",
          c.index, c.steps, util::jsonEscape(c.error).c_str());
    }
    out += i + 1 < r.candidates.size() ? ",\n" : "\n";
  }
  out += "  ]\n";
  out += "}\n";
  return out;
}

}  // namespace mframe::explore
