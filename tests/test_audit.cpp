// Coverage for the reference-free RTL audit: FSM reachability (witness
// paths, halts, dead states), every AUD rule's positive (a seeded .bind
// defect fires it with provenance) and negative (every benchmark x every
// scheduler audits clean), jobs-determinism of report and audit.* counters,
// `next` statement semantics, the strict .bind numeric readers, and the
// golden `audit --json` documents for the benchmark suite.
#include "analysis/audit/audit.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/lint.h"
#include "analysis/rules.h"
#include "analysis/validate/bind_io.h"
#include "baseline/asap_sched.h"
#include "baseline/fds.h"
#include "celllib/ncr_like.h"
#include "core/mfs.h"
#include "core/mfsa.h"
#include "helpers.h"
#include "rtl/controller.h"
#include "rtl/datapath.h"
#include "rtl/microcode.h"
#include "trace/trace.h"
#include "workloads/benchmarks.h"

namespace mframe::analysis::audit {
namespace {

bool fires(const LintReport& r, std::string_view rule) {
  return !r.byRule(rule).empty();
}

/// The clean hand binding of workloads::chained() shared with the validator
/// tests: the t-chain serialised on ALU0, the u-chain on ALU1, six steps.
constexpr std::string_view kChainedBinding = R"(bind chained steps=6
alu 0 addsub16
alu 1 addsub16
op t1 step=1 alu=0
op t2 step=2 alu=0
op t3 step=3 alu=0
op t4 step=4 alu=0
op t5 step=5 alu=0
op t6 step=6 alu=0
op u1 step=1 alu=1
op u2 step=2 alu=1
)";

celllib::CellLibrary tinyLib() {
  celllib::CellLibrary lib;
  lib.addModule({"addsub16",
                 {dfg::FuType::Adder, dfg::FuType::Subtractor},
                 4400.0,
                 41.0,
                 1});
  lib.setRegCost(1800.0);
  lib.setMuxCosts({0.0, 0.0, 620.0, 950.0, 1260.0});
  return lib;
}

BoundDesign bindChained(std::string_view extra = "") {
  const dfg::Dfg g = workloads::chained();
  std::string err;
  const auto b = parseBindDesign(
      g, tinyLib(), std::string(kChainedBinding) + std::string(extra), &err);
  EXPECT_TRUE(b.has_value()) << err;
  return *b;
}

AuditResult auditBound(const BoundDesign& b, int jobs = 1) {
  AuditOptions opt;
  opt.jobs = jobs;
  return auditDesign(b.datapath, b.fsm, b.rom, opt);
}

AuditResult auditDatapath(const rtl::Datapath& d, int jobs = 1) {
  const rtl::ControllerFsm fsm = rtl::buildController(d);
  const rtl::MicrocodeRom rom = rtl::buildMicrocode(d, fsm);
  AuditOptions opt;
  opt.jobs = jobs;
  return auditDesign(d, fsm, rom, opt);
}

// ---------------------------------------------------------------------------
// Reachability
// ---------------------------------------------------------------------------

TEST(Reach, LinearFallbackReachesEveryState) {
  rtl::ControllerFsm fsm;
  fsm.numSteps = 4;  // no edges: implicit chain 0 -> 1 -> ... -> 4 -> halt
  const ReachResult r = reachSteps(fsm);
  EXPECT_EQ(r.numStates, 5);
  EXPECT_EQ(r.reachableCount(), 5);
  EXPECT_TRUE(r.isTerminal(4));
  EXPECT_FALSE(r.isTerminal(2));
  EXPECT_EQ(r.pathFromReset(4), (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(r.preds[3], (std::vector<int>{2}));
}

TEST(Reach, SkippedStateIsUnreachable) {
  rtl::ControllerFsm fsm;
  fsm.numSteps = 4;
  fsm.edges = {{0, 1, dfg::kNoNode},
               {1, 3, dfg::kNoNode},  // skips state 2
               {2, 3, dfg::kNoNode},
               {3, 4, dfg::kNoNode},
               {4, 0, dfg::kNoNode}};
  const ReachResult r = reachSteps(fsm);
  EXPECT_EQ(r.reachableCount(), 4);
  EXPECT_FALSE(r.reachable[2]);
  EXPECT_TRUE(r.pathFromReset(2).empty());
  // state 2's edge into 3 exists but 2 is dead, so it is not a recorded pred.
  EXPECT_EQ(r.preds[3], (std::vector<int>{1}));
  EXPECT_TRUE(r.isTerminal(4));  // to == 0 is halt, not an out-edge
}

TEST(Reach, BranchTakesBothArms) {
  rtl::ControllerFsm fsm;
  fsm.numSteps = 3;
  fsm.edges = {{0, 1, dfg::kNoNode},
               {1, 2, dfg::kNoNode},
               {1, 3, dfg::kNoNode},  // branch: both arms symbolically taken
               {2, 3, dfg::kNoNode},
               {3, 0, dfg::kNoNode}};
  const ReachResult r = reachSteps(fsm);
  EXPECT_EQ(r.reachableCount(), 4);
  EXPECT_EQ(r.succs[1], (std::vector<int>{2, 3}));
  // BFS discovers 3 via the short arm; both preds are recorded.
  EXPECT_EQ(r.pathFromReset(3), (std::vector<int>{0, 1, 3}));
  EXPECT_EQ(r.preds[3], (std::vector<int>{1, 2}));
}

// ---------------------------------------------------------------------------
// Negatives: every benchmark x every synthesis path audits clean
// ---------------------------------------------------------------------------

struct Bench {
  const char* name;
  dfg::Dfg graph;
};

std::vector<Bench> auditSuite() {
  std::vector<Bench> v;
  v.push_back({"tseng", workloads::tseng()});
  v.push_back({"chained", workloads::chained()});
  v.push_back({"diffeq", workloads::diffeq()});
  v.push_back({"fir8", workloads::fir8()});
  v.push_back({"ar", workloads::arLattice()});
  v.push_back({"ewf", workloads::ewfLike()});
  v.push_back({"fdct", workloads::fdctLike()});
  v.push_back({"iir", workloads::iirBiquads()});
  return v;
}

/// Schedule -> bindByColumns -> buildDatapath -> audit; clean = no findings.
void expectClean(const dfg::Dfg& g, const sched::Schedule& s,
                 const std::string& what) {
  static const celllib::CellLibrary lib = celllib::ncrLike();
  const rtl::Datapath d =
      rtl::buildDatapath(g, lib, s, rtl::bindByColumns(g, lib, s, {}));
  const AuditResult r = auditDatapath(d);
  EXPECT_TRUE(r.clean()) << what << ":\n" << r.report.renderText();
  EXPECT_EQ(r.reach.reachableCount(), r.reach.numStates) << what;
}

TEST(AuditAccept, MfsaOnEveryBenchmark) {
  static const celllib::CellLibrary lib = celllib::ncrLike();
  for (const Bench& b : auditSuite()) {
    const auto asap = baseline::runAsap(b.graph, {});
    ASSERT_TRUE(asap.feasible) << b.name;
    core::MfsaOptions o;
    o.constraints.timeSteps = asap.steps;
    const auto r = core::runMfsa(b.graph, lib, o);
    ASSERT_TRUE(r.feasible) << b.name << ": " << r.error;
    const AuditResult a = auditDatapath(r.datapath);
    EXPECT_TRUE(a.clean()) << b.name << " (mfsa):\n" << a.report.renderText();
  }
}

TEST(AuditAccept, MfsOnEveryBenchmark) {
  for (const Bench& b : auditSuite()) {
    const auto asap = baseline::runAsap(b.graph, {});
    ASSERT_TRUE(asap.feasible) << b.name;
    core::MfsOptions o;
    o.constraints.timeSteps = asap.steps;
    const auto r = core::runMfs(b.graph, o);
    ASSERT_TRUE(r.feasible) << b.name << ": " << r.error;
    expectClean(b.graph, r.schedule, std::string(b.name) + " (mfs)");
  }
}

TEST(AuditAccept, AsapOnEveryBenchmark) {
  for (const Bench& b : auditSuite()) {
    const auto asap = baseline::runAsap(b.graph, {});
    ASSERT_TRUE(asap.feasible) << b.name;
    expectClean(b.graph, asap.schedule, std::string(b.name) + " (asap)");
  }
}

TEST(AuditAccept, ForceDirectedOnEveryBenchmark) {
  for (const Bench& b : auditSuite()) {
    const auto asap = baseline::runAsap(b.graph, {});
    ASSERT_TRUE(asap.feasible) << b.name;
    sched::Constraints c;
    c.timeSteps = asap.steps;
    const auto r = baseline::runForceDirected(b.graph, c);
    ASSERT_TRUE(r.feasible) << b.name << ": " << r.error;
    expectClean(b.graph, r.schedule, std::string(b.name) + " (fds)");
  }
}

TEST(AuditAccept, CleanBindingIsSilentForEveryAudRule) {
  const AuditResult r = auditBound(bindChained());
  for (const RuleInfo& rule : allRules())
    if (rule.family == "aud") {
      EXPECT_FALSE(fires(r.report, rule.id)) << rule.id;
    }
  EXPECT_TRUE(r.clean()) << r.report.renderText();
  EXPECT_EQ(r.reach.reachableCount(), 7);
  EXPECT_GT(r.rbwChecks, 0u);
}

// ---------------------------------------------------------------------------
// Positives: each AUD rule fires on its seeded defect, with provenance
// ---------------------------------------------------------------------------

TEST(AuditReject, DeadStateFiresUnreachable) {
  // State 2 jumps straight to 4: state 3 (which issues t3 and latches its
  // result) can never execute.
  const AuditResult r = auditBound(bindChained("next 2 4\n"));
  ASSERT_TRUE(fires(r.report, kAudUnreachable)) << r.report.renderText();
  const Diagnostic d = r.report.byRule(kAudUnreachable).front();
  EXPECT_EQ(d.severity, Severity::Error);  // the dead row does real work
  EXPECT_EQ(d.loc.step, 3);
  bool mentionsIssue = false;
  for (const std::string& p : d.provenance)
    mentionsIssue = mentionsIssue || p.find("t3") != std::string::npos;
  EXPECT_TRUE(mentionsIssue) << d.toText();
  EXPECT_FALSE(r.reach.reachable[3]);
  // The skipped write surfaces downstream as read-before-write and taints
  // the t-chain through to the output.
  EXPECT_TRUE(fires(r.report, kAudReadBeforeWrite));
  EXPECT_TRUE(fires(r.report, kAudXPropagation));
}

TEST(AuditReject, EmptyDeadRowIsOnlyAWarning) {
  // Steps extended to 7; no op or load lives in row 7, and state 6 halts
  // early so row 7 is also unreachable — dead, but harmless.
  std::string text{kChainedBinding};
  const std::string from = "steps=6";
  text.replace(text.find(from), from.size(), "steps=7");
  const dfg::Dfg g = workloads::chained();
  std::string err;
  const auto b = parseBindDesign(g, tinyLib(), text + "next 6 0\n", &err);
  ASSERT_TRUE(b.has_value()) << err;
  const AuditResult r = auditBound(*b);
  ASSERT_TRUE(fires(r.report, kAudUnreachable)) << r.report.renderText();
  EXPECT_EQ(r.report.byRule(kAudUnreachable).front().severity,
            Severity::Warning);
}

TEST(AuditReject, ResetBranchSkippingWritesFiresReadBeforeWrite) {
  // Besides the normal entry into state 1, reset can jump straight to
  // state 2 — every state stays reachable, but on the 0 -> 2 path t2 reads
  // t1's register before anything wrote it.
  const AuditResult r = auditBound(bindChained("next 0 1\nnext 0 2\n"));
  EXPECT_EQ(r.reach.reachableCount(), r.reach.numStates);
  EXPECT_FALSE(fires(r.report, kAudUnreachable));
  ASSERT_TRUE(fires(r.report, kAudReadBeforeWrite)) << r.report.renderText();
  const Diagnostic d = r.report.byRule(kAudReadBeforeWrite).front();
  EXPECT_EQ(d.loc.step, 2);
  bool hasWitness = false;
  for (const std::string& p : d.provenance)
    hasWitness = hasWitness || p.find("0 -> 2") != std::string::npos;
  EXPECT_TRUE(hasWitness) << d.toText();
  // The X taints the chain all the way to the primary outputs.
  EXPECT_TRUE(fires(r.report, kAudXPropagation));
}

TEST(AuditReject, DoubleIssueFiresBusContention) {
  // u1 forced onto ALU0 alongside t1: both issue in step 1 and drive the
  // ALU's output line at once.
  std::string text{kChainedBinding};
  const std::string from = "op u1 step=1 alu=1";
  text.replace(text.find(from), from.size(), "op u1 step=1 alu=0");
  const dfg::Dfg g = workloads::chained();
  std::string err;
  const auto b = parseBindDesign(g, tinyLib(), text, &err);
  ASSERT_TRUE(b.has_value()) << err;
  const AuditResult r = auditBound(*b);
  ASSERT_TRUE(fires(r.report, kAudBusContention)) << r.report.renderText();
  const Diagnostic d = r.report.byRule(kAudBusContention).front();
  EXPECT_EQ(d.loc.step, 1);
  EXPECT_NE(d.message.find("2 concurrent issues"), std::string::npos)
      << d.message;
}

TEST(AuditReject, DeadRowLeavesDeadMuxInputs) {
  // With state 3 dead, the mux inputs that only step 3 ever selected are
  // never selected on any reachable path.
  const AuditResult r = auditBound(bindChained("next 2 4\n"));
  ASSERT_TRUE(fires(r.report, kAudDeadMuxInput)) << r.report.renderText();
  EXPECT_EQ(r.report.byRule(kAudDeadMuxInput).front().severity,
            Severity::Warning);
}

TEST(AuditReject, SharedRegisterFiresWriteClobber) {
  // t1 and u1 forced into register 0: both latch at the end of step 1.
  const AuditResult r = auditBound(bindChained("reg t1 0\nreg u1 0\n"));
  ASSERT_TRUE(fires(r.report, kAudWriteClobber)) << r.report.renderText();
  const Diagnostic d = r.report.byRule(kAudWriteClobber).front();
  EXPECT_EQ(d.loc.step, 1);
  EXPECT_NE(d.message.find("2 concurrent values"), std::string::npos)
      << d.message;
}

TEST(AuditReject, UndefinedOutputFiresXPropagation) {
  const AuditResult r = auditBound(bindChained("next 0 1\nnext 0 2\n"));
  ASSERT_TRUE(fires(r.report, kAudXPropagation)) << r.report.renderText();
  // Both primary outputs of chained (y and z) sit downstream of the taint.
  EXPECT_EQ(r.report.byRule(kAudXPropagation).size(), 2u);
}

// ---------------------------------------------------------------------------
// Determinism: jobs must not change the report or the counters
// ---------------------------------------------------------------------------

TEST(AuditDeterminism, ReportAndCountersAreJobsInvariant) {
  const dfg::Dfg g = workloads::ewfLike();
  static const celllib::CellLibrary lib = celllib::ncrLike();
  const auto asap = baseline::runAsap(g, {});
  ASSERT_TRUE(asap.feasible);
  const rtl::Datapath d = rtl::buildDatapath(
      g, lib, asap.schedule, rtl::bindByColumns(g, lib, asap.schedule, {}));

  trace::enableCounters(true);
  trace::resetCounters();
  const AuditResult one = auditDatapath(d, 1);
  const auto countersOne = trace::counterSnapshot();

  trace::resetCounters();
  const AuditResult eight = auditDatapath(d, 8);
  const auto countersEight = trace::counterSnapshot();
  trace::enableCounters(false);

  EXPECT_EQ(one.report.renderText(), eight.report.renderText());
  EXPECT_EQ(one.rbwChecks, eight.rbwChecks);
  EXPECT_EQ(countersOne, countersEight);
}

TEST(AuditDeterminism, FindingsKeepStepOrderUnderJobs) {
  const BoundDesign b = bindChained("next 2 4\n");
  const AuditResult one = auditBound(b, 1);
  const AuditResult eight = auditBound(b, 8);
  ASSERT_EQ(one.report.size(), eight.report.size());
  EXPECT_EQ(one.report.renderText(), eight.report.renderText());
}

TEST(AuditCounters, TallyReachableStatesChecksAndFindings) {
  trace::enableCounters(true);
  trace::resetCounters();
  const AuditResult r = auditBound(bindChained("next 2 4\n"));
  EXPECT_EQ(trace::counterValue(trace::Counter::AuditReachableStates),
            static_cast<std::uint64_t>(r.reach.reachableCount()));
  EXPECT_EQ(trace::counterValue(trace::Counter::AuditRbwChecks), r.rbwChecks);
  EXPECT_EQ(trace::counterValue(trace::Counter::AuditFindings),
            static_cast<std::uint64_t>(r.report.size()));
  trace::enableCounters(false);
}

// ---------------------------------------------------------------------------
// `next` statement semantics
// ---------------------------------------------------------------------------

TEST(BindNext, FirstNextReplacesLinearEdgeLaterOnesAppend) {
  const BoundDesign replaced = bindChained("next 2 4\n");
  EXPECT_EQ(replaced.fsm.successorsOf(2), (std::vector<int>{4}));
  const BoundDesign branched = bindChained("next 0 1\nnext 0 2\n");
  EXPECT_EQ(branched.fsm.successorsOf(0), (std::vector<int>{1, 2}));
}

TEST(BindNext, ZeroTargetHalts) {
  const BoundDesign b = bindChained("next 3 0\n");
  EXPECT_TRUE(b.fsm.successorsOf(3).empty());
}

TEST(BindNext, CondAnnotatesTheEdge) {
  const dfg::Dfg g = workloads::chained();
  const BoundDesign b = bindChained("next 2 3 cond=t1\n");
  bool found = false;
  for (const rtl::StepEdge& e : b.fsm.edges)
    if (e.from == 2 && e.to == 3) {
      found = true;
      EXPECT_EQ(e.cond, g.findByName("t1"));
    }
  EXPECT_TRUE(found);
}

TEST(BindNext, RejectsMalformedTransfers) {
  const dfg::Dfg g = workloads::chained();
  const std::string base{kChainedBinding};
  std::string err;
  EXPECT_FALSE(parseBindDesign(
      g, tinyLib(), base + "next 1 2\nnext 1 3\nnext 1 4\n", &err));
  EXPECT_NE(err.find("more than two successors"), std::string::npos) << err;
  EXPECT_FALSE(parseBindDesign(g, tinyLib(), base + "next 9 1\n", &err));
  EXPECT_NE(err.find("from-state out of range"), std::string::npos) << err;
  EXPECT_FALSE(parseBindDesign(g, tinyLib(), base + "next 1 9\n", &err));
  EXPECT_NE(err.find("to-state out of range"), std::string::npos) << err;
  EXPECT_FALSE(parseBindDesign(g, tinyLib(), base + "next 1 2 cond=bogus\n",
                               &err));
  EXPECT_NE(err.find("unknown condition signal 'bogus'"), std::string::npos)
      << err;
}

// ---------------------------------------------------------------------------
// Strict numeric readers: malformed values name the offending token
// ---------------------------------------------------------------------------

TEST(BindNumerics, MalformedValuesAreErrorsNotZeros) {
  const dfg::Dfg g = workloads::chained();
  const celllib::CellLibrary lib = tinyLib();
  const std::string base{kChainedBinding};
  struct Case {
    std::string text;
    std::string expect;
  };
  const Case cases[] = {
      {"bind chained steps=abc\n", "bad steps value 'abc'"},
      {"bind chained steps=6\nalu x addsub16\n", "bad ALU index value 'x'"},
      {base + "op t1 step=2q alu=0\n", "bad step value '2q'"},
      {base + "op t1 step=2 alu=zz\n", "bad alu value 'zz'"},
      {base + "reg t1 first\n", "bad register index value 'first'"},
      {base + "route t3 left one\n", "bad select value 'one'"},
      {base + "load t2 step=3.5\n", "bad load step value '3.5'"},
      {base + "next one 2\n", "bad next from-state value 'one'"},
      {base + "next 1 two\n", "bad next to-state value 'two'"},
  };
  for (const Case& c : cases) {
    std::string err;
    EXPECT_FALSE(parseBindDesign(g, lib, c.text, &err)) << c.text;
    EXPECT_NE(err.find(c.expect), std::string::npos)
        << "wanted '" << c.expect << "' in '" << err << "'";
  }
}

// ---------------------------------------------------------------------------
// Rendering and goldens
// ---------------------------------------------------------------------------

TEST(AuditRender, SummaryAndJsonCarryTheHeadline) {
  const AuditResult clean = auditBound(bindChained());
  EXPECT_EQ(renderAuditSummary(clean),
            "audit: 7/7 states reachable, " + std::to_string(clean.rbwChecks) +
                " read checks, clean");
  const dfg::Dfg g = workloads::chained();
  const std::string json = renderAuditJson(clean, g);
  EXPECT_NE(json.find("\"schema\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"design\": \"chained\""), std::string::npos);
  EXPECT_NE(json.find("\"reachableStates\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"lint\":"), std::string::npos);

  const AuditResult dirty = auditBound(bindChained("next 2 4\n"));
  const std::string summary = renderAuditSummary(dirty);
  EXPECT_NE(summary.find("6/7 states reachable"), std::string::npos)
      << summary;
  EXPECT_NE(summary.find("finding"), std::string::npos) << summary;
  // The embedded lint document round-trips through the schema-2 parser.
  const std::string dirtyJson = renderAuditJson(dirty, g);
  const std::size_t lintAt = dirtyJson.find("\"lint\": ");
  ASSERT_NE(lintAt, std::string::npos);
  std::string error;
  const auto parsed = parseDiagnosticsJson(
      dirtyJson.substr(lintAt + 8, dirtyJson.rfind('}') - (lintAt + 8)),
      &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->size(), dirty.report.size());
}

AuditResult auditForGolden(const dfg::Dfg& g) {
  static const celllib::CellLibrary lib = celllib::ncrLike();
  const auto asap = baseline::runAsap(g, {});
  EXPECT_TRUE(asap.feasible) << g.name();
  core::MfsaOptions o;
  o.constraints.timeSteps = asap.steps;
  const auto r = core::runMfsa(g, lib, o);
  EXPECT_TRUE(r.feasible) << g.name() << ": " << r.error;
  return auditDatapath(r.datapath);
}

std::string goldenPath(const std::string& name) {
  return std::string(MFRAME_TESTS_DIR) + "/golden/audit_" + name + ".json";
}

TEST(AuditGolden, JsonIsDeterministic) {
  const dfg::Dfg g = workloads::diffeq();
  const std::string a = renderAuditJson(auditForGolden(g), g);
  const std::string b = renderAuditJson(auditForGolden(g), g);
  EXPECT_EQ(a, b);
}

TEST(AuditGolden, BenchmarksMatchCommittedJson) {
  const bool update = std::getenv("MFRAME_UPDATE_GOLDEN") != nullptr;
  for (const Bench& b : auditSuite()) {
    const AuditResult r = auditForGolden(b.graph);
    EXPECT_TRUE(r.clean()) << b.name << ":\n" << r.report.renderText();
    const std::string json = renderAuditJson(r, b.graph);
    const std::string path = goldenPath(b.graph.name());
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
    EXPECT_EQ(json, ss.str()) << b.name;
  }
}

}  // namespace
}  // namespace mframe::analysis::audit
