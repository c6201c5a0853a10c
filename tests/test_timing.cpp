// Static timing analysis: the register-to-register path model (clk-to-q,
// bus hops, mux trees, ALU settle, setup), the TIM diagnostic family, and
// the end-to-end `analyze` orchestration including the slowchain trap.
#include "analysis/timing/sta.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <set>

#include "analysis/analyze.h"
#include "analysis/rules.h"
#include "celllib/ncr_like.h"
#include "core/mfs.h"
#include "dfg/builder.h"
#include "dfg/parser.h"
#include "helpers.h"
#include "rtl/datapath.h"
#include "sched/timeframes.h"
#include "util/strings.h"
#include "workloads/benchmarks.h"

namespace mframe::analysis::timing {
namespace {

using test::readFile;

const celllib::CellLibrary& lib() {
  static const celllib::CellLibrary l = celllib::ncrLike();
  return l;
}

/// The slowchain fixture, in code: three dependent adds whose optimistic
/// `delay=30` overrides let the scheduler chain them into one 100 ns step,
/// while the library's 40 ns adder plus interconnect overheads cannot make
/// that clock.
dfg::Dfg slowChain() {
  dfg::Builder b("slowchain");
  const auto a = b.input("a");
  const auto bb = b.input("b");
  const auto c = b.input("c");
  const auto d = b.input("d");
  const auto t1 = b.op(dfg::OpKind::Add, {a, bb}, "t1", 1, 30.0);
  const auto t2 = b.op(dfg::OpKind::Add, {t1, c}, "t2", 1, 30.0);
  const auto t3 = b.op(dfg::OpKind::Add, {t2, d}, "t3", 1, 30.0);
  b.output(t3, "result");
  return std::move(b).build();
}

rtl::Datapath synthesize(const dfg::Dfg& g, const sched::Constraints& c) {
  core::MfsOptions opts;
  opts.constraints = c;
  const core::MfsResult r = core::runMfs(g, opts);
  EXPECT_TRUE(r.feasible) << r.error;
  return rtl::buildDatapath(g, lib(), r.schedule,
                            rtl::bindByColumns(g, lib(), r.schedule, c));
}

TimingReport analyzeAt(const dfg::Dfg& g, const sched::Constraints& c,
                       double clockNs, bool clockSet = true) {
  TimingOptions to;
  to.clockNs = clockNs;
  to.clockSet = clockSet;
  return analyzeTiming(synthesize(g, c), to);
}

bool fires(const LintReport& r, std::string_view rule) {
  return !r.byRule(rule).empty();
}

// ---------------------------------------------------------------------------
// Path model
// ---------------------------------------------------------------------------

TEST(Sta, MuxLevelsCountTwoToOneStages) {
  // A plain wire or one source needs no mux; each doubling adds a stage.
  const int expected[] = {0, 0, 1, 2, 2, 3, 3, 3, 3, 4};
  for (std::size_t inputs = 0; inputs < std::size(expected); ++inputs)
    EXPECT_EQ(muxLevels(inputs), expected[inputs]) << inputs << " inputs";
}

TEST(Sta, SingleAddPathSumsAllComponents) {
  dfg::Builder b("one");
  const auto s = b.add(b.input("x"), b.input("y"), "s");
  b.output(s, "o");
  const dfg::Dfg g = std::move(b).build();

  sched::Constraints c;
  c.timeSteps = 1;
  const TimingReport r = analyzeAt(g, c, 100.0);
  ASSERT_EQ(r.endpoints.size(), 1u);
  const EndpointTiming& e = r.endpoints[0];
  // Inputs are registered by this binder: clk-to-q 1 + bus 1.5 + mux 0
  // (single source) + add 40 + out bus 1.5 + setup 1 = 45 ns.
  EXPECT_DOUBLE_EQ(e.arrivalNs, 45.0);
  EXPECT_DOUBLE_EQ(e.requiredNs, 100.0);
  EXPECT_DOUBLE_EQ(e.slackNs, 55.0);
  EXPECT_EQ(e.chainDepth, 1);
  EXPECT_DOUBLE_EQ(r.worstSlackNs, 55.0);
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(Sta, ChainedAddsAccumulateAluDelays) {
  const dfg::Dfg g = slowChain();
  sched::Constraints c;
  c.timeSteps = 1;
  c.allowChaining = true;
  c.clockNs = 100.0;
  const TimingReport r = analyzeAt(g, c, 100.0);
  EXPECT_EQ(r.maxChainDepth, 3);
  EXPECT_LT(r.worstSlackNs, 0.0);
  EXPECT_EQ(r.worstOp, g.findByName("t3"));
  // Three library adders alone are 120 ns before any interconnect.
  double worstArrival = 0;
  for (const EndpointTiming& e : r.endpoints)
    worstArrival = std::max(worstArrival, e.arrivalNs);
  EXPECT_GT(worstArrival, 120.0);
}

TEST(Sta, ProvenanceWalksMuxAluBusRegister) {
  sched::Constraints c;
  c.timeSteps = 1;
  c.allowChaining = true;
  c.clockNs = 100.0;
  const TimingReport r = analyzeAt(slowChain(), c, 100.0);

  const auto viols = r.diagnostics.byRule(kTimClockViolation);
  ASSERT_FALSE(viols.empty());
  const Diagnostic& d = viols.front();
  ASSERT_FALSE(d.provenance.empty());
  const std::string joined = [&] {
    std::string s;
    for (const std::string& line : d.provenance) s += line + "\n";
    return s;
  }();
  // The full path in order: a mux tree, the ALU computing through it, a bus
  // hop carrying the result onward, and the final register latch. Each find
  // starts after the previous hit, so success implies the ordering.
  const std::size_t mux = joined.find("mux:");
  ASSERT_NE(mux, std::string::npos) << joined;
  const std::size_t alu = joined.find("computes", mux);
  ASSERT_NE(alu, std::string::npos) << joined;
  const std::size_t bus = joined.find("bus:", alu);
  ASSERT_NE(bus, std::string::npos) << joined;
  const std::size_t reg = joined.find("register", bus);
  ASSERT_NE(reg, std::string::npos) << joined;
  EXPECT_NE(joined.find("latches", reg), std::string::npos) << joined;
}

TEST(Sta, MulticycleOpsGetMultipleClockPeriods) {
  dfg::Builder b("mc");
  const auto m = b.mul(b.input("x"), b.input("y"), "m", 2);  // 2-cycle mul
  b.output(m, "o");
  const dfg::Dfg g = std::move(b).build();

  sched::Constraints c;
  c.timeSteps = 2;
  // 160 ns multiplier + overheads in two 90 ns cycles: fits.
  const TimingReport ok = analyzeAt(g, c, 90.0);
  EXPECT_FALSE(fires(ok.diagnostics, kTimMulticycleUnderAlloc));
  EXPECT_GE(ok.worstSlackNs, 0.0);
  // The same datapath at 70 ns: 2 * 70 < 160, under-allocated.
  const TimingReport bad = analyzeAt(g, c, 70.0);
  EXPECT_TRUE(fires(bad.diagnostics, kTimMulticycleUnderAlloc));
  EXPECT_FALSE(fires(bad.diagnostics, kTimClockViolation));
  EXPECT_LT(bad.worstSlackNs, 0.0);
}

// ---------------------------------------------------------------------------
// TIM diagnostics
// ---------------------------------------------------------------------------

TEST(TimRules, Tim001OnlyWhenClockIsSet) {
  sched::Constraints c;
  c.timeSteps = 1;
  c.allowChaining = true;
  c.clockNs = 100.0;
  const TimingReport tight = analyzeAt(slowChain(), c, 100.0);
  EXPECT_TRUE(fires(tight.diagnostics, kTimClockViolation));
  EXPECT_EQ(findRule(kTimClockViolation)->severity, Severity::Error);

  // Same datapath, no --clock: advisory TIM002 instead of an error.
  const TimingReport free = analyzeAt(slowChain(), c, 100.0, false);
  EXPECT_FALSE(fires(free.diagnostics, kTimClockViolation));
  EXPECT_TRUE(fires(free.diagnostics, kTimUnconstrainedChain));
  EXPECT_EQ(free.diagnostics.byRule(kTimUnconstrainedChain).size(), 1u)
      << "one advisory per design, at the deepest chain";
}

TEST(TimRules, Tim002SilentWithoutChaining) {
  sched::Constraints c;
  c.timeSteps = 3;
  const TimingReport r = analyzeAt(slowChain(), c, 100.0, false);
  EXPECT_EQ(r.maxChainDepth, 1);
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(TimRules, Tim004FlagsNearCriticalPaths) {
  dfg::Builder b("near");
  const auto s = b.add(b.input("x"), b.input("y"), "s");
  b.output(s, "o");
  const dfg::Dfg g = std::move(b).build();
  sched::Constraints c;
  c.timeSteps = 1;
  // Arrival is 44 ns (see SingleAddPathSumsAllComponents). At a 48 ns clock
  // the path makes timing but sits above the 90% guardband.
  const TimingReport r = analyzeAt(g, c, 48.0);
  EXPECT_FALSE(fires(r.diagnostics, kTimClockViolation));
  EXPECT_TRUE(fires(r.diagnostics, kTimNearCritical));
  // At 60 ns there is comfortable margin.
  const TimingReport roomy = analyzeAt(g, c, 60.0);
  EXPECT_TRUE(roomy.diagnostics.empty());
}

// ---------------------------------------------------------------------------
// analyzeDesign orchestration
// ---------------------------------------------------------------------------

TEST(AnalyzeDesign, SlowchainTrapEndToEnd) {
  AnalyzeOptions opts;
  opts.steps = 1;
  opts.constraints.allowChaining = true;
  opts.constraints.clockNs = 100.0;
  opts.clockSet = true;
  const AnalyzeResult r = analyzeDesign(slowChain(), lib(), opts);
  ASSERT_TRUE(r.timingRan) << r.timingSkip;
  EXPECT_TRUE(fires(r.report, kTimClockViolation));
  EXPECT_TRUE(r.report.hasErrors());
  EXPECT_NE(r.renderText(slowChain()).find("TIM001"), std::string::npos);
}

/// slowchain.dfg in text form, with the delay override value pluggable.
std::string slowChainText(const std::string& delay) {
  return "dfg slowchain\ninput a\ninput b\ninput c\ninput d\n"
         "op add t1 a b delay=" + delay + "\n"
         "op add t2 t1 c delay=" + delay + "\n"
         "op add t3 t2 d delay=" + delay + "\n"
         "output result t3\n";
}

TEST(AnalyzeDesign, MalformedDelayNoLongerHidesTim001) {
  // The honest slowchain file: optimistic delay=30 overrides chain all
  // three adds into one 100 ns step and the STA refutes it with TIM001.
  AnalyzeOptions opts;
  opts.steps = 1;
  opts.constraints.allowChaining = true;
  opts.constraints.clockNs = 100.0;
  opts.clockSet = true;
  const dfg::Dfg honest = dfg::parse(slowChainText("30"));
  const AnalyzeResult r = analyzeDesign(honest, lib(), opts);
  ASSERT_TRUE(r.timingRan) << r.timingSkip;
  EXPECT_TRUE(fires(r.report, kTimClockViolation));

  // A typo'd override used to strtod to a silent 0.0 and keep going — the
  // schedule, the datapath, and the TIM verdict then described a graph the
  // author never wrote, with no diagnostic anywhere. Strict parsing (the
  // analyze/schedule/synth path) now refuses the file outright...
  EXPECT_THROW(dfg::parse(slowChainText("3O")), dfg::DfgError);
  EXPECT_THROW(dfg::parse(slowChainText("abc")), dfg::DfgError);

  // ...and lenient parsing (the lint path) records one issue per bad
  // override and leaves delayNs unset rather than zeroed, so `mframe lint`
  // reports the typo instead of blessing the wrong timing story.
  std::vector<dfg::ParseIssue> issues;
  const dfg::Dfg typod = dfg::parseLenient(slowChainText("3O"), issues);
  ASSERT_EQ(issues.size(), 3u);
  EXPECT_NE(issues[0].message.find("bad delay value '3O'"), std::string::npos);
  EXPECT_LT(typod.node(typod.findByName("t1")).delayNs, 0.0);
}

TEST(AnalyzeDesign, CleanBenchmarkHasNoTimingFindings) {
  AnalyzeOptions opts;
  opts.constraints.clockNs = 200.0;
  opts.clockSet = true;
  const AnalyzeResult r = analyzeDesign(workloads::chained(), lib(), opts);
  ASSERT_TRUE(r.timingRan) << r.timingSkip;
  EXPECT_TRUE(r.report.empty()) << r.report.renderText();
  EXPECT_GT(r.timing.endpoints.size(), 0u);
  EXPECT_GE(r.timing.worstSlackNs, 0.0);
}

TEST(AnalyzeDesign, EmptyDesignSkipsTimingGracefully) {
  dfg::Builder b("leafy");
  b.output(b.input("x"), "o");
  const AnalyzeResult r =
      analyzeDesign(std::move(b).build(), lib(), AnalyzeOptions{});
  EXPECT_FALSE(r.timingRan);
  EXPECT_FALSE(r.timingSkip.empty());
}

// ---------------------------------------------------------------------------
// Golden timing reports: the endpoint table, the critical path and every TIM
// diagnostic with its provenance, byte for byte
// ---------------------------------------------------------------------------

struct TimingGoldenCase {
  dfg::Dfg graph;
  int steps;  ///< 0: the design's critical path under `chaining`
  bool chaining;
  double clockNs;
  bool clockSet;
};

TimingReport timingGoldenReport(const TimingGoldenCase& gc) {
  sched::Constraints c;
  c.allowChaining = gc.chaining;
  c.clockNs = gc.clockNs;
  c.timeSteps = gc.steps > 0
                    ? gc.steps
                    : sched::computeTimeFrames(gc.graph, c)->criticalSteps();
  return analyzeAt(gc.graph, c, gc.clockNs, gc.clockSet);
}

TEST(TimingGolden, ReportsMatchCommittedText) {
  // Clocks and chaining are chosen so that TIM001-TIM004 each fire at least
  // once across the set, and several paths cross chained ALUs.
  const TimingGoldenCase cases[] = {
      {workloads::tseng(), 0, false, 180.0, true},
      {workloads::chained(), 4, true, 100.0, true},
      {workloads::diffeq(), 0, true, 200.0, false},
      {workloads::fir8(), 0, true, 200.0, true},
      {workloads::arLattice(), 0, false, 170.0, true},
      {workloads::ewfLike(), 0, false, 70.0, true},
      {workloads::fdctLike(), 0, true, 200.0, true},
      {workloads::iirBiquads(), 0, true, 200.0, false},
      {dfg::parse(readFile(
           util::format("%s/../tools/designs/slowchain.dfg", MFRAME_TESTS_DIR))),
       1, true, 100.0, true},
  };
  const bool update = std::getenv("MFRAME_UPDATE_GOLDEN") != nullptr;
  std::set<std::string_view> fired;
  for (const TimingGoldenCase& gc : cases) {
    const TimingReport r = timingGoldenReport(gc);
    for (std::string_view rule :
         {kTimClockViolation, kTimUnconstrainedChain, kTimMulticycleUnderAlloc,
          kTimNearCritical})
      if (fires(r.diagnostics, rule)) fired.insert(rule);
    const std::string text = r.toString(gc.graph) + r.diagnostics.renderText();
    const std::string path = util::format(
        "%s/golden/timing_%s.txt", MFRAME_TESTS_DIR, gc.graph.name().c_str());
    if (update) {
      std::ofstream out(path);
      ASSERT_TRUE(out.good()) << path;
      out << text;
      continue;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing golden " << path
                           << " (regenerate with MFRAME_UPDATE_GOLDEN=1)";
    EXPECT_EQ(text, readFile(path)) << gc.graph.name();
  }
  EXPECT_EQ(fired.size(), 4u) << "every TIM rule fires somewhere";
}

TEST(AnalyzeDesign, EndpointOrderIsDeterministic) {
  AnalyzeOptions opts;
  opts.constraints.clockNs = 200.0;
  opts.clockSet = true;
  const AnalyzeResult a = analyzeDesign(workloads::diffeq(), lib(), opts);
  const AnalyzeResult b = analyzeDesign(workloads::diffeq(), lib(), opts);
  ASSERT_EQ(a.timing.endpoints.size(), b.timing.endpoints.size());
  for (std::size_t i = 0; i < a.timing.endpoints.size(); ++i) {
    EXPECT_EQ(a.timing.endpoints[i].op, b.timing.endpoints[i].op);
    EXPECT_DOUBLE_EQ(a.timing.endpoints[i].arrivalNs,
                     b.timing.endpoints[i].arrivalNs);
  }
  EXPECT_EQ(a.renderText(workloads::diffeq()),
            b.renderText(workloads::diffeq()));
}

}  // namespace
}  // namespace mframe::analysis::timing
