// Coverage for the interval range analysis over the FSM x datapath product:
// interval inference through ALUs, muxes and registers; every WID rule's
// positive (a seeded defect fires it with provenance) and negative (every
// benchmark x every scheduler proves clean); reachability refinement via
// decided branch conditions and the refined re-audit; loop-head widening;
// `assert` statement semantics and the strict .bind numeric readers;
// jobs-determinism of report, JSON and range.* counters; and the golden
// `range --json` documents for the benchmark suite.
#include "analysis/range/range.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/audit/audit.h"
#include "analysis/lint.h"
#include "analysis/rules.h"
#include "analysis/validate/bind_io.h"
#include "baseline/asap_sched.h"
#include "baseline/fds.h"
#include "celllib/ncr_like.h"
#include "core/mfs.h"
#include "core/mfsa.h"
#include "dfg/parser.h"
#include "rtl/controller.h"
#include "rtl/datapath.h"
#include "rtl/microcode.h"
#include "trace/trace.h"
#include "workloads/benchmarks.h"

namespace mframe::analysis::range {
namespace {

bool fires(const LintReport& r, std::string_view rule) {
  return !r.byRule(rule).empty();
}

/// Narrow-width fixture: 4-bit inputs make every interval finite, the
/// constant k is the always-zero branch condition of the refinement tests,
/// and n1's width=4 declaration is provably satisfied ([0, 15]).
constexpr std::string_view kRangedDfg = R"(dfg ranged
input a width=4
input b width=4
input c width=4
const 0 k
op add t1 a b
op add t2 t1 c
op add n1 a k width=4
op add t3 t2 n1
output y t3
)";

/// The clean binding: the t-chain on ALU0, n1 alone on ALU1, three steps.
/// Extras appended by tests start at .bind line 8.
constexpr std::string_view kRangedBinding = R"(bind ranged steps=3
alu 0 addsub16
alu 1 addsub16
op t1 step=1 alu=0
op n1 step=1 alu=1
op t2 step=2 alu=0
op t3 step=3 alu=0
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

const dfg::Dfg& rangedGraph() {
  static const dfg::Dfg g = dfg::parse(kRangedDfg);
  return g;
}

BoundDesign bindRanged(std::string_view extra = "",
                       std::string_view binding = kRangedBinding) {
  std::string err;
  const auto b = parseBindDesign(
      rangedGraph(), tinyLib(),
      std::string(binding) + std::string(extra), &err);
  EXPECT_TRUE(b.has_value()) << err;
  return *b;
}

RangeResult rangeBound(const BoundDesign& b, int jobs = 1) {
  RangeOptions opt;
  opt.jobs = jobs;
  opt.asserts = b.asserts;
  return analyzeDesignRanges(b.datapath, b.fsm, b.rom, opt);
}

RangeResult rangeDatapath(const rtl::Datapath& d, int jobs = 1) {
  const rtl::ControllerFsm fsm = rtl::buildController(d);
  const rtl::MicrocodeRom rom = rtl::buildMicrocode(d, fsm);
  RangeOptions opt;
  opt.jobs = jobs;
  return analyzeDesignRanges(d, fsm, rom, opt);
}

// ---------------------------------------------------------------------------
// Negatives: every benchmark x every scheduler proves clean
// ---------------------------------------------------------------------------

struct Bench {
  const char* name;
  dfg::Dfg graph;
};

std::vector<Bench> rangeSuite() {
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

/// Schedule -> bindByColumns -> buildDatapath -> range; clean = no findings.
void expectClean(const dfg::Dfg& g, const sched::Schedule& s,
                 const std::string& what) {
  static const celllib::CellLibrary lib = celllib::ncrLike();
  const rtl::Datapath d =
      rtl::buildDatapath(g, lib, s, rtl::bindByColumns(g, lib, s, {}));
  const RangeResult r = rangeDatapath(d);
  EXPECT_TRUE(r.clean()) << what << ":\n" << r.report.renderText();
  EXPECT_EQ(r.reach.reachableCount(), r.reach.numStates) << what;
  EXPECT_EQ(r.refined.reachableCount(), r.reach.reachableCount()) << what;
  EXPECT_TRUE(r.pruned.empty()) << what;
}

TEST(RangeAccept, MfsaOnEveryBenchmark) {
  static const celllib::CellLibrary lib = celllib::ncrLike();
  for (const Bench& b : rangeSuite()) {
    const auto asap = baseline::runAsap(b.graph, {});
    ASSERT_TRUE(asap.feasible) << b.name;
    core::MfsaOptions o;
    o.constraints.timeSteps = asap.steps;
    const auto r = core::runMfsa(b.graph, lib, o);
    ASSERT_TRUE(r.feasible) << b.name << ": " << r.error;
    const RangeResult a = rangeDatapath(r.datapath);
    EXPECT_TRUE(a.clean()) << b.name << " (mfsa):\n" << a.report.renderText();
  }
}

TEST(RangeAccept, MfsOnEveryBenchmark) {
  for (const Bench& b : rangeSuite()) {
    const auto asap = baseline::runAsap(b.graph, {});
    ASSERT_TRUE(asap.feasible) << b.name;
    core::MfsOptions o;
    o.constraints.timeSteps = asap.steps;
    const auto r = core::runMfs(b.graph, o);
    ASSERT_TRUE(r.feasible) << b.name << ": " << r.error;
    expectClean(b.graph, r.schedule, std::string(b.name) + " (mfs)");
  }
}

TEST(RangeAccept, AsapOnEveryBenchmark) {
  for (const Bench& b : rangeSuite()) {
    const auto asap = baseline::runAsap(b.graph, {});
    ASSERT_TRUE(asap.feasible) << b.name;
    expectClean(b.graph, asap.schedule, std::string(b.name) + " (asap)");
  }
}

TEST(RangeAccept, ForceDirectedOnEveryBenchmark) {
  for (const Bench& b : rangeSuite()) {
    const auto asap = baseline::runAsap(b.graph, {});
    ASSERT_TRUE(asap.feasible) << b.name;
    sched::Constraints c;
    c.timeSteps = asap.steps;
    const auto r = baseline::runForceDirected(b.graph, c);
    ASSERT_TRUE(r.feasible) << b.name << ": " << r.error;
    expectClean(b.graph, r.schedule, std::string(b.name) + " (fds)");
  }
}

TEST(RangeAccept, CleanBindingIsSilentForEveryWidRule) {
  const RangeResult r = rangeBound(bindRanged());
  for (const RuleInfo& rule : allRules())
    if (rule.family == "wid") {
      EXPECT_FALSE(fires(r.report, rule.id)) << rule.id;
    }
  EXPECT_TRUE(r.clean()) << r.report.renderText();
  EXPECT_EQ(r.statesInterpreted, 4u);
  EXPECT_EQ(r.widenings, 0u);
}

// ---------------------------------------------------------------------------
// Inference: intervals follow the declared widths through the datapath
// ---------------------------------------------------------------------------

TEST(RangeInference, IntervalsFollowDeclaredWidthsThroughTheProduct) {
  // Pin the four producers so the register indices are fixed: the 4-bit
  // inputs bound every chained sum exactly.
  const RangeResult r =
      rangeBound(bindRanged("reg t1 0\nreg t2 1\nreg n1 2\nreg t3 3\n"));
  ASSERT_TRUE(r.clean()) << r.report.renderText();
  ASSERT_EQ(static_cast<int>(r.values.size()), 4);
  const RangeState& last = r.values[3];
  ASSERT_TRUE(last.reached);
  const struct {
    int reg;
    sim::Word lo, hi;
  } expect[] = {{0, 0, 30}, {1, 0, 45}, {2, 0, 15}, {3, 0, 60}};
  for (const auto& e : expect) {
    ASSERT_TRUE(last.regs[e.reg].defined) << "R" << e.reg;
    EXPECT_EQ(last.regs[e.reg].val.lo, e.lo) << "R" << e.reg;
    EXPECT_EQ(last.regs[e.reg].val.hi, e.hi) << "R" << e.reg;
  }
  // t3 is not latched until state 3's out-state: still undefined in 2.
  EXPECT_FALSE(r.values[2].regs[3].defined);
}

// ---------------------------------------------------------------------------
// Positives: each WID rule fires on its seeded defect, with provenance
// ---------------------------------------------------------------------------

TEST(RangeReject, TruncatingSharedRegisterFiresWid001) {
  // t2 ([0, 45], 6 bits) shares R0 with n1, whose width=4 declaration
  // sizes the register: latching t2 truncates.
  const RangeResult r = rangeBound(bindRanged("reg n1 0\nreg t2 0\n"));
  ASSERT_TRUE(fires(r.report, kWidTruncatingWrite)) << r.report.renderText();
  const Diagnostic d = r.report.byRule(kWidTruncatingWrite).front();
  EXPECT_EQ(d.severity, Severity::Error);
  EXPECT_EQ(d.loc.step, 2);  // the truncating latch happens in state 2
  bool namesTenant = false, hasWitness = false;
  for (const std::string& p : d.provenance) {
    namesTenant = namesTenant || p.find("n1") != std::string::npos;
    hasWitness = hasWitness || p.find("0 -> 1 -> 2") != std::string::npos;
  }
  EXPECT_TRUE(namesTenant) << d.toText();
  EXPECT_TRUE(hasWitness) << d.toText();
  EXPECT_FALSE(fires(r.report, kWidSharedLineOverflow));
}

TEST(RangeReject, SharedAluLineFiresWid002) {
  // t2 rebound onto ALU1, whose output line n1's width=4 declaration sizes.
  const std::string binding{
      "bind ranged steps=3\n"
      "alu 0 addsub16\n"
      "alu 1 addsub16\n"
      "op t1 step=1 alu=0\n"
      "op n1 step=1 alu=1\n"
      "op t2 step=2 alu=1\n"
      "op t3 step=3 alu=0\n"};
  const RangeResult r = rangeBound(bindRanged("", binding));
  ASSERT_TRUE(fires(r.report, kWidSharedLineOverflow))
      << r.report.renderText();
  const Diagnostic d = r.report.byRule(kWidSharedLineOverflow).front();
  EXPECT_EQ(d.severity, Severity::Error);
  EXPECT_EQ(d.loc.step, 2);
  EXPECT_FALSE(fires(r.report, kWidTruncatingWrite));
}

TEST(RangeReject, UndersizedDeclarationFiresWid003) {
  // t1 declares width=4 but [0, 30] needs 5 bits; with its own register the
  // declaration is the only finding.
  const dfg::Dfg g = dfg::parse(
      "dfg rangedecl\n"
      "input a width=4\n"
      "input b width=4\n"
      "op add t1 a b width=4\n"
      "output y t1\n");
  std::string err;
  const auto b = parseBindDesign(g, tinyLib(),
                                 "bind rangedecl steps=1\n"
                                 "alu 0 addsub16\n"
                                 "op t1 step=1 alu=0\n",
                                 &err);
  ASSERT_TRUE(b.has_value()) << err;
  const RangeResult r = rangeBound(*b);
  ASSERT_TRUE(fires(r.report, kWidDeclaredWidthOverflow))
      << r.report.renderText();
  const Diagnostic d = r.report.byRule(kWidDeclaredWidthOverflow).front();
  EXPECT_EQ(d.severity, Severity::Warning);
  EXPECT_EQ(d.loc.step, 1);
  EXPECT_NE(d.message.find("width=4"), std::string::npos) << d.toText();
}

// ---------------------------------------------------------------------------
// Refinement: decided conditions prune edges; the refined audit relaxes
// ---------------------------------------------------------------------------

TEST(RangeRefinement, DecidedCondPrunesEdgeAndWid004Fires) {
  // State 2's only transfer into 3 is conditional on the constant 0: the
  // edge is provably never taken, state 3 is value-dead, and the mux
  // inputs only t3's issue selects there are flagged.
  const BoundDesign b = bindRanged("next 2 3 cond=k\n");
  const RangeResult r = rangeBound(b);
  ASSERT_EQ(r.pruned.size(), 1u);
  EXPECT_EQ(r.pruned[0].edge.from, 2);
  EXPECT_EQ(r.pruned[0].edge.to, 3);
  EXPECT_NE(r.pruned[0].reason.find("always 0"), std::string::npos);
  EXPECT_EQ(r.reach.reachableCount(), 4);
  EXPECT_EQ(r.refined.reachableCount(), 3);
  ASSERT_TRUE(fires(r.report, kWidValueDeadMuxInput))
      << r.report.renderText();
  const auto hits = r.report.byRule(kWidValueDeadMuxInput);
  EXPECT_EQ(hits.size(), 2u);  // t3's left (t2) and right (n1) selects
  bool namesDeadState = false;
  for (const std::string& p : hits.front().provenance)
    namesDeadState =
        namesDeadState || p.find("value-dead state 3") != std::string::npos;
  EXPECT_TRUE(namesDeadState) << hits.front().toText();
  // The refined audit treats state 3 as proven-dead: no AUD001 for it.
  const audit::AuditResult a = auditRefined(r, b.datapath, b.rom, {});
  EXPECT_FALSE(fires(a.report, kAudUnreachable)) << a.report.renderText();
}

TEST(RangeRefinement, RefinementKillsAuditFalsePositives) {
  // A reset branch jumps straight to state 3, conditional on the constant
  // 0. The plain audit walks the impossible 0 -> 3 path and reports
  // read-before-write plus X-propagation; the refined audit proves the
  // branch dead and both findings disappear.
  const BoundDesign b = bindRanged("next 0 1\nnext 0 3 cond=k\n");
  const audit::AuditResult plain =
      audit::auditDesign(b.datapath, b.fsm, b.rom, {});
  ASSERT_TRUE(fires(plain.report, kAudReadBeforeWrite))
      << plain.report.renderText();
  ASSERT_TRUE(fires(plain.report, kAudXPropagation));

  const RangeResult r = rangeBound(b);
  ASSERT_EQ(r.pruned.size(), 1u);
  EXPECT_TRUE(r.clean()) << r.report.renderText();
  const audit::AuditResult refined = auditRefined(r, b.datapath, b.rom, {});
  EXPECT_TRUE(refined.clean()) << refined.report.renderText();
  EXPECT_FALSE(fires(refined.report, kAudReadBeforeWrite));
  EXPECT_FALSE(fires(refined.report, kAudXPropagation));
}

// ---------------------------------------------------------------------------
// Widening: an accumulator loop converges by saturating to full width
// ---------------------------------------------------------------------------

TEST(RangeWidening, AccumulatorLoopSaturatesToFullWidth) {
  // t2 latches into c's register and the FSM loops 3 -> 1: each iteration
  // grows t2 by up to 45, so only widening terminates the fixpoint. The
  // widened [0, 65535] then truncates in the 4-bit register: WID001.
  const RangeResult r =
      rangeBound(bindRanged("reg c 0\nreg t2 0\nnext 3 1\n"));
  EXPECT_GT(r.widenings, 0u);
  ASSERT_TRUE(fires(r.report, kWidTruncatingWrite)) << r.report.renderText();
  const Diagnostic d = r.report.byRule(kWidTruncatingWrite).front();
  EXPECT_NE(d.message.find("[0, 65535]"), std::string::npos) << d.toText();
}

// ---------------------------------------------------------------------------
// Asserts: .bind contracts checked against the inferred intervals
// ---------------------------------------------------------------------------

TEST(RangeAsserts, SatisfiedAssertIsClean) {
  const RangeResult r = rangeBound(
      bindRanged("reg t2 0\nassert reg=0 min=0 max=45 width=6\n"));
  EXPECT_TRUE(r.clean()) << r.report.renderText();
  EXPECT_EQ(r.assertsChecked, 1u);
}

TEST(RangeAsserts, ViolatedAssertsFireWid005WithLineProvenance) {
  // Line 8 pins the register; the asserts sit on .bind lines 9 and 10.
  const RangeResult r = rangeBound(bindRanged(
      "reg t2 0\n"
      "assert reg=0 min=0 max=30\n"
      "assert reg=0 min=0 max=63 width=5\n"));
  const auto hits = r.report.byRule(kWidAssertViolated);
  ASSERT_EQ(hits.size(), 2u) << r.report.renderText();
  EXPECT_EQ(hits[0].severity, Severity::Error);
  EXPECT_EQ(hits[0].loc.line, 9);
  EXPECT_EQ(hits[1].loc.line, 10);
  EXPECT_NE(hits[0].message.find("[0, 30]"), std::string::npos)
      << hits[0].toText();
  EXPECT_NE(hits[1].message.find("width=5"), std::string::npos)
      << hits[1].toText();
  EXPECT_EQ(hits[0].loc.step, 2);  // first offending state: t2's latch
}

TEST(RangeAsserts, OutOfRangeRegisterIndexFiresWid005) {
  const RangeResult r =
      rangeBound(bindRanged("assert reg=99 min=0 max=5\n"));
  ASSERT_TRUE(fires(r.report, kWidAssertViolated)) << r.report.renderText();
}

// ---------------------------------------------------------------------------
// Strict numeric readers: malformed assert values name the offending token
// ---------------------------------------------------------------------------

TEST(BindAsserts, StrictNumericsAndValidation) {
  const dfg::Dfg& g = rangedGraph();
  const celllib::CellLibrary lib = tinyLib();
  const std::string base{kRangedBinding};
  struct Case {
    std::string text;
    std::string expect;
  };
  const Case cases[] = {
      {base + "assert reg=abc min=0 max=5\n", "bad assert reg value 'abc'"},
      {base + "assert reg=0 min=zz max=5\n", "bad assert min value 'zz'"},
      {base + "assert reg=0 min=0 max=5.5\n", "bad assert max value '5.5'"},
      {base + "assert reg=0 min=0 max=5 width=w8\n",
       "bad assert width value 'w8'"},
      {base + "assert reg=0 min=6 max=5\n", "assert min exceeds max"},
      {base + "assert reg=0 min=0 max=5 width=99\n",
       "assert width out of range"},
      {base + "assert reg=0 max=5\n",
       "expected: assert reg=<r> min=<a> max=<b> [width=<w>]"},
  };
  for (const Case& c : cases) {
    std::string err;
    EXPECT_FALSE(parseBindDesign(g, lib, c.text, &err)) << c.text;
    EXPECT_NE(err.find(c.expect), std::string::npos)
        << "wanted '" << c.expect << "' in '" << err << "'";
  }
  // The well-formed statement round-trips with its declaration line.
  std::string err;
  const auto b = parseBindDesign(
      g, lib, base + "assert reg=0 min=1 max=5 width=3\n", &err);
  ASSERT_TRUE(b.has_value()) << err;
  ASSERT_EQ(b->asserts.size(), 1u);
  EXPECT_EQ(b->asserts[0].reg, 0);
  EXPECT_EQ(b->asserts[0].min, 1u);
  EXPECT_EQ(b->asserts[0].max, 5u);
  EXPECT_EQ(b->asserts[0].width, 3);
  EXPECT_EQ(b->asserts[0].line, 8);
}

// ---------------------------------------------------------------------------
// Determinism: jobs must not change the report, the JSON or the counters
// ---------------------------------------------------------------------------

TEST(RangeDeterminism, ReportJsonAndCountersAreJobsInvariant) {
  const dfg::Dfg g = workloads::ewfLike();
  static const celllib::CellLibrary lib = celllib::ncrLike();
  const auto asap = baseline::runAsap(g, {});
  ASSERT_TRUE(asap.feasible);
  const rtl::Datapath d = rtl::buildDatapath(
      g, lib, asap.schedule, rtl::bindByColumns(g, lib, asap.schedule, {}));

  trace::enableCounters(true);
  trace::resetCounters();
  const RangeResult one = rangeDatapath(d, 1);
  const auto countersOne = trace::counterSnapshot();

  trace::resetCounters();
  const RangeResult eight = rangeDatapath(d, 8);
  const auto countersEight = trace::counterSnapshot();
  trace::enableCounters(false);

  EXPECT_EQ(one.report.renderText(), eight.report.renderText());
  EXPECT_EQ(renderRangeJson(one, g), renderRangeJson(eight, g));
  EXPECT_EQ(countersOne, countersEight);
}

TEST(RangeCounters, TallyStatesWideningsAssertsAndFindings) {
  trace::enableCounters(true);
  trace::resetCounters();
  const RangeResult r =
      rangeBound(bindRanged("reg c 0\nreg t2 0\nnext 3 1\n"));
  EXPECT_EQ(trace::counterValue(trace::Counter::RangeStates),
            r.statesInterpreted);
  EXPECT_EQ(trace::counterValue(trace::Counter::RangeWidenings), r.widenings);
  EXPECT_EQ(trace::counterValue(trace::Counter::RangeAsserts),
            r.assertsChecked);
  EXPECT_EQ(trace::counterValue(trace::Counter::RangeFindings),
            static_cast<std::uint64_t>(r.report.size()));
  trace::enableCounters(false);
}

// ---------------------------------------------------------------------------
// Rendering and goldens
// ---------------------------------------------------------------------------

TEST(RangeRender, SummaryAndJsonCarryTheHeadline) {
  const BoundDesign b = bindRanged("next 2 3 cond=k\n");
  const RangeResult r = rangeBound(b);
  const std::string summary = renderRangeSummary(r);
  EXPECT_NE(summary.find("4/4 states reachable (3 refined)"),
            std::string::npos)
      << summary;
  EXPECT_NE(summary.find("1 pruned edge(s)"), std::string::npos) << summary;
  const std::string json = renderRangeJson(r, rangedGraph());
  EXPECT_NE(json.find("\"schema\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"design\": \"ranged\""), std::string::npos);
  EXPECT_NE(json.find("\"refinedReachableStates\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"cond\": \"k\""), std::string::npos);
  EXPECT_NE(json.find("\"lint\":"), std::string::npos);
  // The embedded lint document round-trips through the schema-2 parser.
  const std::size_t lintAt = json.find("\"lint\": ");
  ASSERT_NE(lintAt, std::string::npos);
  std::string error;
  const auto parsed = parseDiagnosticsJson(
      json.substr(lintAt + 8, json.rfind('}') - (lintAt + 8)), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->size(), r.report.size());
}

RangeResult rangeForGolden(const dfg::Dfg& g) {
  static const celllib::CellLibrary lib = celllib::ncrLike();
  const auto asap = baseline::runAsap(g, {});
  EXPECT_TRUE(asap.feasible) << g.name();
  core::MfsaOptions o;
  o.constraints.timeSteps = asap.steps;
  const auto r = core::runMfsa(g, lib, o);
  EXPECT_TRUE(r.feasible) << g.name() << ": " << r.error;
  return rangeDatapath(r.datapath);
}

std::string goldenPath(const std::string& name) {
  return std::string(MFRAME_TESTS_DIR) + "/golden/range_" + name + ".json";
}

TEST(RangeGolden, JsonIsDeterministic) {
  const dfg::Dfg g = workloads::diffeq();
  const std::string a = renderRangeJson(rangeForGolden(g), g);
  const std::string b = renderRangeJson(rangeForGolden(g), g);
  EXPECT_EQ(a, b);
}

TEST(RangeGolden, BenchmarksMatchCommittedJson) {
  const bool update = std::getenv("MFRAME_UPDATE_GOLDEN") != nullptr;
  for (const Bench& b : rangeSuite()) {
    const RangeResult r = rangeForGolden(b.graph);
    EXPECT_TRUE(r.clean()) << b.name << ":\n" << r.report.renderText();
    const std::string json = renderRangeJson(r, b.graph);
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
}  // namespace mframe::analysis::range
