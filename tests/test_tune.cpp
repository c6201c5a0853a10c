// The tune loop and its ingredients: cone extraction with frontier pinning,
// the criticality lattice, the analyzeSlack error channel, slowchain
// convergence, the prove gate on stitches, --jobs counter determinism, and
// golden tune --json outputs for the benchmark designs.
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "analysis/analyze.h"
#include "analysis/criticality/criticality.h"
#include "analysis/criticality/tune.h"
#include "analysis/timing/sta.h"
#include "analysis/validate/validate.h"
#include "celllib/ncr_like.h"
#include "core/mfs.h"
#include "dfg/parser.h"
#include "dfg/transforms.h"
#include "helpers.h"
#include "rtl/datapath.h"
#include "sched/slack.h"
#include "sched/stitch.h"
#include "trace/trace.h"
#include "workloads/benchmarks.h"

namespace mframe::analysis::criticality {
namespace {

/// The chaining trap of tools/designs/slowchain.dfg: three dependent adds
/// each claiming 30 ns, so the scheduler chains all three into one step at
/// --clock 100 while the physical path is far slower.
dfg::Dfg slowchain() {
  return dfg::parse(
      "dfg slowchain\n"
      "input a\ninput b\ninput c\ninput d\n"
      "op add t1 a b delay=30\n"
      "op add t2 t1 c delay=30\n"
      "op add t3 t2 d delay=30\n"
      "output result t3\n");
}

sched::Constraints chainedConstraints(double clockNs) {
  sched::Constraints c;
  c.allowChaining = true;
  c.clockNs = clockNs;
  return c;
}

// ---------------------------------------------------------------------------
// Cone extraction
// ---------------------------------------------------------------------------

TEST(ConeCut, ExtractsKHopNeighborhoodWithFrontierPins) {
  const dfg::Dfg g = slowchain();
  const dfg::NodeId t1 = g.findByName("t1");
  const dfg::NodeId t3 = g.findByName("t3");
  const dfg::ConeCut cut = dfg::extractCone(g, {t3}, 1);

  // 1 hop from t3 reaches t2; t1 stays outside and is pinned as a frontier
  // input standing in for its result.
  EXPECT_EQ(cut.coneOps, 2u);
  EXPECT_EQ(cut.toCone.count(t3), 1u);
  EXPECT_EQ(cut.toCone.count(g.findByName("t2")), 1u);
  EXPECT_EQ(cut.toCone.count(t1), 0u);
  ASSERT_EQ(cut.frontier.size(), 1u);
  EXPECT_EQ(cut.frontier[0], t1);

  const dfg::NodeId pin = cut.cone.findByName("t1");
  ASSERT_NE(pin, dfg::kNoNode);
  EXPECT_EQ(cut.cone.node(pin).kind, dfg::OpKind::Input);

  // The cut is a well-formed graph and preserves the exported output.
  EXPECT_FALSE(cut.cone.validate().has_value());
  ASSERT_EQ(cut.cone.outputs().size(), 1u);
  EXPECT_EQ(cut.cone.outputs()[0].first, cut.toCone.at(t3));
}

TEST(ConeCut, MapsConeIdsBackToFullIds) {
  const dfg::Dfg g = slowchain();
  const dfg::ConeCut cut = dfg::extractCone(g, {g.findByName("t3")}, 2);
  EXPECT_EQ(cut.coneOps, 3u);  // 2 hops reach the whole chain
  for (const auto& [full, cid] : cut.toCone) {
    ASSERT_LT(static_cast<std::size_t>(cid), cut.coneToFull.size());
    EXPECT_EQ(cut.coneToFull[cid], full);
    EXPECT_EQ(cut.cone.node(cid).name, g.node(full).name);
  }
}

TEST(ConeCut, MemberResultReadOutsideBecomesOutput) {
  const dfg::Dfg g = slowchain();
  // Cone around t1 only: t2 (a non-member) reads t1, so t1 must be exported.
  const dfg::ConeCut cut = dfg::extractCone(g, {g.findByName("t1")}, 0);
  EXPECT_EQ(cut.coneOps, 1u);
  ASSERT_EQ(cut.cone.outputs().size(), 1u);
  EXPECT_EQ(cut.cone.outputs()[0].first,
            cut.toCone.at(g.findByName("t1")));
}

TEST(ConeCut, RejectsNonOperationSeed) {
  const dfg::Dfg g = slowchain();
  EXPECT_THROW(dfg::extractCone(g, {g.findByName("a")}, 1),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Criticality lattice
// ---------------------------------------------------------------------------

TEST(Criticality, SeedsViolatingEndpointsAndDecaysBackward) {
  const dfg::Dfg g = slowchain();
  const celllib::CellLibrary lib = celllib::ncrLike();

  core::MfsOptions mo;
  mo.constraints = chainedConstraints(100.0);
  mo.constraints.timeSteps = 1;  // the trap: all three adds chained
  const core::MfsResult r = core::runMfs(g, mo);
  ASSERT_TRUE(r.feasible) << r.error;

  const rtl::Datapath dp =
      rtl::buildDatapath(g, lib, r.schedule,
                         rtl::bindByColumns(g, lib, r.schedule, mo.constraints));
  timing::TimingOptions to;
  to.clockNs = 100.0;
  to.clockSet = true;
  const timing::TimingReport tr = timing::analyzeTiming(dp, to);
  ASSERT_LT(tr.worstSlackNs, 0.0);

  const auto slack = sched::analyzeSlack(r.schedule, mo.constraints);
  ASSERT_TRUE(slack.has_value());
  const CriticalityResult crit = analyzeCriticality(dp, tr, *slack);

  const dfg::NodeId t1 = g.findByName("t1");
  const dfg::NodeId t3 = g.findByName("t3");
  ASSERT_FALSE(crit.seeds.empty());
  EXPECT_EQ(crit.seeds.front(), t3);  // the violating latched endpoint
  // The seed outranks its upstream producers, and scores decay backward.
  ASSERT_FALSE(crit.ranked.empty());
  EXPECT_EQ(crit.ranked.front(), t3);
  EXPECT_GT(crit.score[t3], crit.score[t1]);
  EXPECT_GT(crit.score[t1], 0.0);
  // Observed delay sees the 40 ns library adder, not the claimed 30 ns.
  EXPECT_GE(crit.observedDelayNs[t1], 40.0);
}

// ---------------------------------------------------------------------------
// analyzeSlack error channel (regression: incomplete schedules were UB)
// ---------------------------------------------------------------------------

TEST(Slack, IncompleteScheduleIsAnErrorNotUb) {
  const dfg::Dfg g = slowchain();
  sched::Schedule s(g);  // nothing placed
  s.setNumSteps(3);
  std::string err;
  const auto rep = sched::analyzeSlack(s, {}, &err);
  EXPECT_FALSE(rep.has_value());
  EXPECT_NE(err.find("unplaced"), std::string::npos) << err;
}

TEST(Slack, GraphlessScheduleIsAnError) {
  std::string err;
  const auto rep = sched::analyzeSlack(sched::Schedule{}, {}, &err);
  EXPECT_FALSE(rep.has_value());
  EXPECT_NE(err.find("no graph"), std::string::npos) << err;
}

TEST(Slack, RenderJsonCarriesSchemaField) {
  const dfg::Dfg g = slowchain();
  core::MfsOptions mo;
  mo.constraints.timeSteps = 3;
  const core::MfsResult r = core::runMfs(g, mo);
  ASSERT_TRUE(r.feasible);
  const auto rep = sched::analyzeSlack(r.schedule, mo.constraints);
  ASSERT_TRUE(rep.has_value());
  const std::string json = rep->renderJson(g);
  EXPECT_NE(json.find("\"schema\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"ops\": ["), std::string::npos);
}

// ---------------------------------------------------------------------------
// The tune loop
// ---------------------------------------------------------------------------

TuneOptions slowchainOptions() {
  TuneOptions opt;
  opt.constraints = chainedConstraints(100.0);
  opt.budget = 6;
  opt.jobs = 1;
  return opt;
}

TEST(Tune, SlowchainConvergesWithinBudget) {
  const dfg::Dfg g = slowchain();
  const celllib::CellLibrary lib = celllib::ncrLike();
  const TuneResult r = tuneDesign(g, lib, slowchainOptions());

  EXPECT_TRUE(r.converged) << r.error;
  EXPECT_LT(r.initialWorstSlackNs, 0.0);   // the trap fired...
  EXPECT_GE(r.worstSlackNs, 0.0);          // ...and the loop fixed it
  EXPECT_GE(r.iterations, 1);
  EXPECT_LE(r.iterations, 6);
  EXPECT_GE(r.steps, 2);                   // the 1-step chain had to split
  ASSERT_FALSE(r.trail.empty());
  EXPECT_EQ(r.trail.back().worstSlackNs, r.worstSlackNs);
  EXPECT_TRUE(r.slackRan);
}

TEST(Tune, AcceptedScheduleIsProvenEquivalent) {
  const dfg::Dfg g = slowchain();
  const celllib::CellLibrary lib = celllib::ncrLike();
  const TuneResult r = tuneDesign(g, lib, slowchainOptions());
  ASSERT_TRUE(r.converged) << r.error;
  // The final datapath must still prove — tune may only move operations,
  // never change what the design computes.
  EXPECT_FALSE(proveDatapath(r.datapath).hasErrors());
}

TEST(Tune, ProveGateRefusesCorruptedStitch) {
  const dfg::Dfg g = slowchain();
  const celllib::CellLibrary lib = celllib::ncrLike();

  TuneOptions opt = slowchainOptions();
  // Corrupt the first accepted candidate after stitch verification: swapping
  // the steps of t1 and t3 inverts the dependence chain, which the
  // translation validator (or datapath construction) must refuse. The hook
  // is one-shot, so the loop recovers with the next candidate.
  opt.stitchMutatorForTest = [&](sched::Schedule& s) {
    const dfg::NodeId t1 = g.findByName("t1");
    const dfg::NodeId t3 = g.findByName("t3");
    const int s1 = s.stepOf(t1);
    const int c1 = s.columnOf(t1);
    s.place(t1, s.stepOf(t3), s.columnOf(t3));
    s.place(t3, s1, c1);
  };

  trace::enableCounters(true);
  trace::resetCounters();
  const TuneResult r = tuneDesign(g, lib, opt);
  const std::uint64_t rejected =
      trace::counterValue(trace::Counter::TuneRejectedStitches);
  trace::enableCounters(false);

  EXPECT_GE(rejected, 1u);  // the corrupted stitch was refused
  ASSERT_FALSE(r.trail.empty());
  EXPECT_GE(r.trail.front().rejected, 1);
  EXPECT_TRUE(r.converged) << r.error;  // ...and tune still got there
  EXPECT_FALSE(proveDatapath(r.datapath).hasErrors());
}

TEST(Tune, CountersAndJsonBitIdenticalAcrossJobs) {
  const dfg::Dfg g = slowchain();
  const celllib::CellLibrary lib = celllib::ncrLike();

  auto run = [&](int jobs) {
    TuneOptions opt = slowchainOptions();
    opt.jobs = jobs;
    trace::enableCounters(true);
    trace::resetCounters();
    const TuneResult r = tuneDesign(g, lib, opt);
    auto counters = trace::counterSnapshot();
    trace::enableCounters(false);
    return std::make_pair(r.renderJson(g), counters);
  };

  const auto [json1, counters1] = run(1);
  const auto [json8, counters8] = run(8);
  EXPECT_EQ(json1, json8);
  EXPECT_EQ(counters1, counters8);
}

TEST(Tune, AlreadyMeetingClockConvergesWithoutIterating) {
  const dfg::Dfg g = slowchain();
  const celllib::CellLibrary lib = celllib::ncrLike();
  TuneOptions opt = slowchainOptions();
  opt.constraints.clockNs = 1000.0;  // plenty of period: nothing to fix
  const TuneResult r = tuneDesign(g, lib, opt);
  EXPECT_TRUE(r.converged) << r.error;
  EXPECT_EQ(r.iterations, 0);
  EXPECT_TRUE(r.trail.empty());
}

// ---------------------------------------------------------------------------
// Golden `tune --json` outputs over the benchmark designs
// ---------------------------------------------------------------------------

TuneResult tuneForGolden(const dfg::Dfg& g) {
  static const celllib::CellLibrary lib = celllib::ncrLike();
  TuneOptions opt;
  opt.constraints = chainedConstraints(200.0);
  opt.budget = 4;
  opt.jobs = 1;
  return tuneDesign(g, lib, opt);
}

std::string tuneGoldenPath(const std::string& name) {
  return std::string(MFRAME_TESTS_DIR) + "/golden/tune_" + name + ".json";
}

TEST(Tune, FdctUnschedulableCandidateIsRefusedUpFront) {
  // Candidate 1 pads the cone's delays by 25%, which lifts a multiply past
  // the derated clock in every iteration. MFS must refuse that candidate
  // without searching schedule lengths (a walk to the 4096-step cap costs
  // about 3.4e8 cell evaluations here).
  const test::CounterScope counters;
  const auto before = trace::counterValue(trace::Counter::LiapunovCellEvals);
  const TuneResult r = tuneForGolden(workloads::fdctLike());
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_LE(trace::counterValue(trace::Counter::LiapunovCellEvals) - before,
            10000u);
}

// ---------------------------------------------------------------------------
// JSON escaping of user-supplied names
// ---------------------------------------------------------------------------

/// Whether `s` is exactly one well-formed JSON value (RFC 8259 grammar;
/// numbers are checked loosely, which is all these documents need).
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view s) : s_(s) {}
  bool wellFormed() {
    if (!value()) return false;
    skipSpace();
    return i_ == s_.size();
  }

 private:
  void skipSpace() {
    while (i_ < s_.size() && std::string_view(" \t\r\n").find(s_[i_]) !=
                                 std::string_view::npos)
      ++i_;
  }
  bool eat(char c) {
    skipSpace();
    if (i_ >= s_.size() || s_[i_] != c) return false;
    ++i_;
    return true;
  }
  bool value() {
    skipSpace();
    if (i_ >= s_.size()) return false;
    if (s_[i_] == '{') return members('}', true);
    if (s_[i_] == '[') return members(']', false);
    if (s_[i_] == '"') return string();
    for (const std::string_view lit : {"true", "false", "null"})
      if (s_.substr(i_, lit.size()) == lit) {
        i_ += lit.size();
        return true;
      }
    const std::size_t start = i_;
    while (i_ < s_.size() && std::string_view("+-.eE0123456789").find(
                                 s_[i_]) != std::string_view::npos)
      ++i_;
    return i_ > start;
  }
  bool members(char close, bool object) {
    ++i_;
    if (eat(close)) return true;
    do {
      if (object) {
        skipSpace();
        if (!string() || !eat(':')) return false;
      }
      if (!value()) return false;
    } while (eat(','));
    return eat(close);
  }
  bool string() {
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    for (++i_; i_ < s_.size(); ++i_) {
      const char c = s_[i_];
      if (c == '"') {
        ++i_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        ++i_;
        if (i_ >= s_.size() || std::string_view("\"\\/bfnrtu").find(s_[i_]) ==
                                   std::string_view::npos)
          return false;
      }
    }
    return false;
  }

  std::string_view s_;
  std::size_t i_ = 0;
};

/// slowchain with a double quote in the design name and in one op name.
dfg::Dfg quotedSlowchain() {
  return dfg::parse(
      "dfg slow\"chain\n"
      "input a\ninput b\ninput c\ninput d\n"
      "op add t\"1 a b delay=30\n"
      "op add t2 t\"1 c delay=30\n"
      "op add t3 t2 d delay=30\n"
      "output result t3\n");
}

TEST(JsonEscape, QuotedNamesRenderValidTuneJson) {
  const dfg::Dfg g = quotedSlowchain();
  const TuneResult r = tuneDesign(g, celllib::ncrLike(), slowchainOptions());
  ASSERT_TRUE(r.slackRan) << r.error;
  const std::string json = r.renderJson(g);
  EXPECT_TRUE(JsonChecker(json).wellFormed()) << json;
  EXPECT_NE(json.find(R"("design": "slow\"chain")"), std::string::npos);
  EXPECT_NE(json.find(R"("op": "t\"1")"), std::string::npos);
}

TEST(JsonEscape, QuotedNamesRenderValidAnalyzeJson) {
  const dfg::Dfg g = quotedSlowchain();
  const AnalyzeResult r = analyzeDesign(g, celllib::ncrLike(), {});
  ASSERT_TRUE(r.slackRan) << r.timingSkip;
  const std::string lint = r.report.renderJson(g.name());
  const std::string slack = r.slack.renderJson(g);
  EXPECT_TRUE(JsonChecker(lint).wellFormed()) << lint;
  EXPECT_TRUE(JsonChecker(slack).wellFormed()) << slack;
  EXPECT_NE(lint.find(R"("design": "slow\"chain")"), std::string::npos);
  EXPECT_NE(slack.find(R"("op": "t\"1")"), std::string::npos);
}

TEST(TuneGolden, JsonIsDeterministic) {
  const dfg::Dfg g = workloads::diffeq();
  EXPECT_EQ(tuneForGolden(g).renderJson(g), tuneForGolden(g).renderJson(g));
}

TEST(TuneGolden, BenchmarksMatchCommittedJson) {
  const dfg::Dfg designs[] = {
      workloads::tseng(),    workloads::chained(),   workloads::diffeq(),
      workloads::fir8(),     workloads::arLattice(), workloads::ewfLike(),
      workloads::fdctLike(), workloads::iirBiquads()};
  const bool update = std::getenv("MFRAME_UPDATE_GOLDEN") != nullptr;
  for (const dfg::Dfg& g : designs) {
    const std::string json = tuneForGolden(g).renderJson(g);
    const std::string path = tuneGoldenPath(g.name());
    if (update) {
      std::ofstream out(path);
      ASSERT_TRUE(out.good()) << path;
      out << json;
      continue;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing golden " << path
                           << " (regenerate with MFRAME_UPDATE_GOLDEN=1)";
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(json, ss.str()) << g.name();
  }
}

}  // namespace
}  // namespace mframe::analysis::criticality
