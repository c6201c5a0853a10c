// Coverage for the structured lint engine: every rule id has a positive
// (the rule fires on a seeded defect) and a negative (a clean design stays
// silent), plus the JSON round-trip contract of docs/FORMATS.md.
#include "analysis/lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "celllib/ncr_like.h"
#include "core/mfsa.h"
#include "dfg/builder.h"
#include "dfg/parser.h"
#include "helpers.h"
#include "rtl/bus.h"
#include "rtl/controller.h"
#include "rtl/microcode.h"
#include "workloads/benchmarks.h"

namespace mframe::analysis {
namespace {

bool fires(const LintReport& r, std::string_view rule) {
  return !r.byRule(rule).empty();
}

sched::Schedule validDiamond(const dfg::Dfg& g) {
  sched::Schedule s(g);
  s.setNumSteps(3);
  s.place(g.findByName("s"), 1, 1);
  s.place(g.findByName("t"), 1, 1);
  s.place(g.findByName("y"), 2, 1);
  s.place(g.findByName("f"), 3, 1);
  return s;
}

core::MfsaResult synth(const dfg::Dfg& g, int cs) {
  static const celllib::CellLibrary lib = celllib::ncrLike();
  core::MfsaOptions o;
  o.constraints.timeSteps = cs;
  return core::runMfsa(g, lib, o);
}

/// The messages of every `rule` finding, in emission order.
std::vector<std::string> messagesOf(const LintReport& r, std::string_view rule) {
  std::vector<std::string> out;
  for (const Diagnostic& d : r.byRule(rule)) out.push_back(d.message);
  return out;
}

/// `n` independent two-cycle multiplications m1..mn of x and y.
dfg::Dfg twoCycleMuls(int n) {
  dfg::Builder b("muls");
  const auto x = b.input("x");
  const auto y = b.input("y");
  for (int i = 1; i <= n; ++i)
    b.output(b.mul(x, y, "m" + std::to_string(i), 2), "o" + std::to_string(i));
  return std::move(b).build();
}

/// `s` bound column by column onto the default library.
rtl::Datapath bindColumns(const sched::Schedule& s) {
  static const celllib::CellLibrary lib = celllib::ncrLike();
  const dfg::Dfg& g = s.graph();
  return rtl::buildDatapath(g, lib, s, rtl::bindByColumns(g, lib, s, {}));
}

// ---------------------------------------------------------------------------
// Rule registry
// ---------------------------------------------------------------------------

TEST(LintRules, IdsAreUniqueWellFormedAndFindable) {
  std::set<std::string_view> ids;
  for (const RuleInfo& r : allRules()) {
    EXPECT_TRUE(ids.insert(r.id).second) << "duplicate id " << r.id;
    ASSERT_EQ(r.id.size(), 6u) << r.id;
    EXPECT_TRUE(r.family == "dfg" || r.family == "sched" ||
                r.family == "rtl" || r.family == "eqv" || r.family == "lib" ||
                r.family == "opt" || r.family == "tim" || r.family == "aud" ||
                r.family == "wid");
    const std::string_view prefix = r.id.substr(0, 3);
    EXPECT_EQ(prefix, r.family == "dfg"     ? "DFG"
                      : r.family == "sched" ? "SCH"
                      : r.family == "rtl"   ? "RTL"
                      : r.family == "eqv"   ? "EQV"
                      : r.family == "opt"   ? "OPT"
                      : r.family == "tim"   ? "TIM"
                      : r.family == "aud"   ? "AUD"
                      : r.family == "wid"   ? "WID"
                                            : "LIB");
    EXPECT_FALSE(r.summary.empty());
    EXPECT_EQ(findRule(r.id), &r);
  }
  EXPECT_GE(ids.size(), 30u);
  EXPECT_EQ(findRule("XYZ999"), nullptr);
}

TEST(LintRules, FamilyPrefixesAreDerivedFromIds) {
  for (std::string_view p :
       {"DFG", "SCH", "RTL", "EQV", "LIB", "OPT", "TIM", "AUD", "WID"})
    EXPECT_TRUE(isRuleFamilyPrefix(p)) << p;
  EXPECT_FALSE(isRuleFamilyPrefix("BOGUS"));
  EXPECT_FALSE(isRuleFamilyPrefix("AUD001"));  // exact ids are not families
  EXPECT_FALSE(isRuleFamilyPrefix(""));
  EXPECT_EQ(ruleFamilyPrefixes().size(), 9u);
}

TEST(LintRules, SeverityNamesRoundTrip) {
  for (Severity s : {Severity::Note, Severity::Warning, Severity::Error}) {
    Severity back;
    ASSERT_TRUE(parseSeverity(severityName(s), back));
    EXPECT_EQ(back, s);
  }
  Severity out;
  EXPECT_FALSE(parseSeverity("fatal", out));
}

// ---------------------------------------------------------------------------
// Negatives: clean designs raise nothing, rule by rule
// ---------------------------------------------------------------------------

TEST(LintDfg, CleanGraphIsSilentForEveryDfgRule) {
  const LintReport r = lintDfg(test::smallDiamond());
  for (const RuleInfo& rule : allRules())
    if (rule.family == "dfg") {
      EXPECT_FALSE(fires(r, rule.id)) << rule.id;
    }
  EXPECT_TRUE(r.empty());
}

TEST(LintSchedule, CleanScheduleIsSilentForEveryScheduleRule) {
  const dfg::Dfg g = test::smallDiamond();
  sched::Constraints c;
  c.timeSteps = 3;
  const LintReport r = lintSchedule(validDiamond(g), c);
  for (const RuleInfo& rule : allRules())
    if (rule.family == "sched") {
      EXPECT_FALSE(fires(r, rule.id)) << rule.id;
    }
  EXPECT_TRUE(r.empty());
}

TEST(LintRtl, CleanSynthesisIsSilentForEveryRtlRule) {
  const auto res = synth(workloads::diffeq(), 4);
  ASSERT_TRUE(res.feasible) << res.error;
  const rtl::Datapath& d = res.datapath;
  sched::Constraints c;
  c.timeSteps = 4;
  const rtl::ControllerFsm fsm = rtl::buildController(d);

  LintReport r = lintDatapath(d, c, rtl::DesignStyle::Unrestricted);
  r.merge(lintBusPlan(d, fsm, rtl::planBuses(d, fsm)));
  r.merge(lintMicrocode(d, fsm, rtl::buildMicrocode(d, fsm)));
  for (const RuleInfo& rule : allRules())
    if (rule.family == "rtl") {
      EXPECT_FALSE(fires(r, rule.id)) << rule.id;
    }
  EXPECT_TRUE(r.empty());
}

// ---------------------------------------------------------------------------
// DFG rule positives
// ---------------------------------------------------------------------------

TEST(LintDfg, DanglingInputFires) {  // DFG001
  dfg::Dfg g = test::smallDiamond();
  g.mutableNode(g.findByName("y")).inputs.push_back(99);
  const LintReport r = lintDfg(g);
  ASSERT_TRUE(fires(r, kDfgDanglingInput));
  EXPECT_EQ(r.byRule(kDfgDanglingInput).front().loc.node, "y");
}

TEST(LintDfg, ArityMismatchFires) {  // DFG002
  dfg::Dfg g = test::smallDiamond();
  g.mutableNode(g.findByName("y")).inputs.pop_back();
  EXPECT_TRUE(fires(lintDfg(g), kDfgArityMismatch));
}

TEST(LintDfg, CycleFiresWithOffendingPath) {  // DFG003
  dfg::Dfg g = test::smallDiamond();
  // s feeds y; rewire s to read y back: s -> y -> s.
  g.mutableNode(g.findByName("s")).inputs[0] = g.findByName("y");
  const LintReport r = lintDfg(g);
  const auto cyc = r.byRule(kDfgCycle);
  ASSERT_EQ(cyc.size(), 1u);
  EXPECT_NE(cyc.front().loc.detail.find(" -> "), std::string::npos);
  EXPECT_NE(cyc.front().message.find("cycle"), std::string::npos);
}

TEST(LintDfg, ForwardReferenceFires) {  // DFG010
  dfg::Dfg g = test::smallDiamond();
  g.mutableNode(g.findByName("s")).inputs[0] = g.findByName("y");
  EXPECT_TRUE(fires(lintDfg(g), kDfgForwardRef));
}

TEST(LintDfg, UnreachableOpFires) {  // DFG004
  dfg::Builder b("dead");
  const auto a = b.input("a");
  const auto c = b.input("c");
  b.add(a, c, "orphan");
  b.output(b.add(a, c, "live"), "o");
  const LintReport r = lintDfg(std::move(b).build());
  ASSERT_TRUE(fires(r, kDfgUnreachableOp));
  EXPECT_EQ(r.byRule(kDfgUnreachableOp).front().loc.node, "orphan");
}

TEST(LintDfg, NoOutputsAtAllIsDesignLevel) {  // DFG004 (design)
  dfg::Builder b("noout");
  const auto a = b.input("a");
  b.add(a, a, "x");
  const LintReport r = lintDfg(std::move(b).build());
  ASSERT_TRUE(fires(r, kDfgUnreachableOp));
  EXPECT_EQ(r.byRule(kDfgUnreachableOp).front().entity, EntityKind::Design);
}

TEST(LintDfg, BadCyclesFires) {  // DFG005
  dfg::Dfg g = test::smallDiamond();
  g.mutableNode(g.findByName("y")).cycles = 0;
  EXPECT_TRUE(fires(lintDfg(g), kDfgBadCycles));
}

TEST(LintDfg, BadDelayOverrideFires) {  // DFG006
  dfg::Dfg g = test::smallDiamond();
  g.mutableNode(g.findByName("y")).delayNs = 0.0;  // "free" chaining
  EXPECT_TRUE(fires(lintDfg(g), kDfgBadDelayOverride));

  dfg::Dfg h = test::smallDiamond();
  h.mutableNode(h.findByName("a")).delayNs = 5.0;  // delay on an Input node
  EXPECT_TRUE(fires(lintDfg(h), kDfgBadDelayOverride));
}

TEST(LintDfg, BadBranchPathFires) {  // DFG007
  dfg::Dfg g = test::smallDiamond();
  g.mutableNode(g.findByName("y")).branchPath = "c1";  // odd component count
  EXPECT_TRUE(fires(lintDfg(g), kDfgBadBranchPath));
}

TEST(LintDfg, DuplicateNameFires) {  // DFG008
  dfg::Dfg g = test::smallDiamond();
  g.mutableNode(g.findByName("t")).name = "s";
  EXPECT_TRUE(fires(lintDfg(g), kDfgDuplicateName));
}

TEST(LintDfg, DeadLeafFires) {  // DFG009
  dfg::Builder b("leafy");
  const auto a = b.input("a");
  b.input("unused");
  b.output(b.add(a, a, "x"), "o");
  const LintReport r = lintDfg(std::move(b).build());
  ASSERT_TRUE(fires(r, kDfgDeadLeaf));
  EXPECT_EQ(r.byRule(kDfgDeadLeaf).front().loc.node, "unused");
}

TEST(LintDfg, BadOutputRefFires) {  // DFG011
  dfg::Dfg g = test::smallDiamond();
  g.markOutput(999, "bogus");
  EXPECT_TRUE(fires(lintDfg(g), kDfgBadOutputRef));
}

TEST(LintDfg, BadWidthFires) {  // DFG012
  dfg::Dfg g = test::smallDiamond();
  g.mutableNode(g.findByName("y")).width = 65;
  EXPECT_TRUE(fires(lintDfg(g), kDfgBadWidth));

  dfg::Dfg h = test::smallDiamond();
  h.mutableNode(h.findByName("a")).width = -3;
  EXPECT_TRUE(fires(lintDfg(h), kDfgBadWidth));

  dfg::Dfg ok = test::smallDiamond();
  ok.mutableNode(ok.findByName("y")).width = 8;
  EXPECT_FALSE(fires(lintDfg(ok), kDfgBadWidth));
}

TEST(LintDfg, ConstWidthOverflowFires) {  // DFG013
  // 99 needs 7 bits: it cannot survive a width=4 mask unchanged.
  const dfg::Dfg g = dfg::parse(
      "dfg cbad\ninput a\nconst 99 k width=4\nop add t a k\noutput y t\n");
  const LintReport r = lintDfg(g);
  ASSERT_TRUE(fires(r, kDfgConstWidthOverflow));
  const Diagnostic d = r.byRule(kDfgConstWidthOverflow).front();
  EXPECT_EQ(d.severity, Severity::Error);
  EXPECT_EQ(d.loc.node, "k");
  EXPECT_NE(d.message.find("max 15"), std::string::npos) << d.toText();

  // A negative literal never fits (the value domain is unsigned).
  dfg::Dfg neg = dfg::parse(
      "dfg cneg\ninput a\nconst 0 k width=4\nop add t a k\noutput y t\n");
  neg.mutableNode(neg.findByName("k")).constValue = -1;
  EXPECT_TRUE(fires(lintDfg(neg), kDfgConstWidthOverflow));

  // The boundary value 15 fits exactly; an unsized literal is never checked.
  const dfg::Dfg ok = dfg::parse(
      "dfg cok\ninput a\nconst 15 k width=4\nop add t a k\noutput y t\n");
  EXPECT_FALSE(fires(lintDfg(ok), kDfgConstWidthOverflow));
  const dfg::Dfg unsized = dfg::parse(
      "dfg cun\ninput a\nconst 99 k\nop add t a k\noutput y t\n");
  EXPECT_FALSE(fires(lintDfg(unsized), kDfgConstWidthOverflow));
}

TEST(LintDfg, LenientParseFeedsTheLinter) {
  // The strict parser would throw on all three defects; the lenient parser
  // materializes them so lint can report each with its own rule id.
  std::vector<dfg::ParseIssue> issues;
  const dfg::Dfg g = dfg::parseLenient(
      "dfg broken\n"
      "input a\n"
      "op add s a ghost\n"       // unknown operand -> placeholder input
      "op add t a a cycles=0\n"  // bad attribute value kept as written
      "output o t\n",
      issues);
  ASSERT_FALSE(issues.empty());
  EXPECT_TRUE(issues.front().unknownSignal);
  const LintReport r = lintDfg(g);
  EXPECT_TRUE(fires(r, kDfgBadCycles));
  EXPECT_TRUE(fires(r, kDfgUnreachableOp));  // s never reaches an output
}

// ---------------------------------------------------------------------------
// Schedule rule positives
// ---------------------------------------------------------------------------

TEST(LintSchedule, UnplacedOpFires) {  // SCH001
  const dfg::Dfg g = test::smallDiamond();
  sched::Schedule s(g);
  s.setNumSteps(3);
  sched::Constraints c;
  c.timeSteps = 3;
  const LintReport r = lintSchedule(s, c);
  EXPECT_EQ(r.byRule(kSchedUnplaced).size(), 4u);  // all four ops
  // Completeness errors suppress the later passes entirely.
  for (const Diagnostic& d : r.diagnostics()) EXPECT_EQ(d.rule, kSchedUnplaced);
}

TEST(LintSchedule, OutOfRangeFires) {  // SCH002
  const dfg::Dfg g = test::smallDiamond();
  sched::Schedule s = validDiamond(g);
  s.setNumSteps(2);  // f now sits at step 3
  sched::Constraints c;
  c.timeSteps = 2;
  const LintReport r = lintSchedule(s, c);
  ASSERT_TRUE(fires(r, kSchedOutOfRange));
  EXPECT_EQ(r.byRule(kSchedOutOfRange).front().loc.step, 3);
}

TEST(LintSchedule, BadColumnFires) {  // SCH003
  const dfg::Dfg g = test::smallDiamond();
  sched::Schedule s = validDiamond(g);
  s.place(g.findByName("f"), 3, 0);
  sched::Constraints c;
  c.timeSteps = 3;
  EXPECT_TRUE(fires(lintSchedule(s, c), kSchedBadColumn));
}

TEST(LintSchedule, PrecedenceViolationFires) {  // SCH004
  const dfg::Dfg g = test::smallDiamond();
  sched::Schedule s = validDiamond(g);
  s.place(g.findByName("y"), 1, 1);  // same step as its producers
  sched::Constraints c;
  c.timeSteps = 3;
  const LintReport r = lintSchedule(s, c);
  ASSERT_TRUE(fires(r, kSchedPrecedence));
  const Diagnostic d = r.byRule(kSchedPrecedence).front();
  EXPECT_EQ(d.loc.node, "y");
  EXPECT_FALSE(d.loc.detail.empty());  // names the offending producer
}

TEST(LintSchedule, ChainOverflowFires) {  // SCH005
  const dfg::Dfg g = test::addChain(3);  // 3 x 40ns > 100ns
  sched::Constraints c;
  c.timeSteps = 1;
  c.allowChaining = true;
  c.clockNs = 100.0;
  sched::Schedule s(g);
  s.setNumSteps(1);
  s.place(g.findByName("c1"), 1, 1);
  s.place(g.findByName("c2"), 1, 2);
  s.place(g.findByName("c3"), 1, 3);
  EXPECT_TRUE(fires(lintSchedule(s, c), kSchedChainOverflow));
}

TEST(LintSchedule, MidStepStartFires) {  // SCH006
  dfg::Builder b("mid");
  const auto x = b.input("x");
  const auto k = b.input("k");
  const auto c1 = b.add(x, k, "c1");
  b.output(b.mul(c1, k, "m", 2), "o");  // multicycle op fed by a chain
  const dfg::Dfg g = std::move(b).build();
  sched::Constraints c;
  c.timeSteps = 2;
  c.allowChaining = true;
  c.clockNs = 500.0;
  sched::Schedule s(g);
  s.setNumSteps(2);
  s.place(g.findByName("c1"), 1, 1);
  s.place(g.findByName("m"), 1, 1);  // would have to start mid-step
  EXPECT_TRUE(fires(lintSchedule(s, c), kSchedMidStepStart));
}

TEST(LintSchedule, OccupancyConflictFires) {  // SCH007
  const dfg::Dfg g = test::addParallel(2);
  sched::Schedule s(g);
  s.setNumSteps(1);
  const auto ops = g.operations();
  s.place(ops[0], 1, 1);
  s.place(ops[1], 1, 1);
  sched::Constraints c;
  c.timeSteps = 1;
  const LintReport r = lintSchedule(s, c);
  ASSERT_TRUE(fires(r, kSchedOccupancy));
  EXPECT_EQ(r.byRule(kSchedOccupancy).front().entity, EntityKind::Fu);
}

TEST(LintSchedule, OccupancyPairSharingTwoStepsIsReportedOnce) {  // SCH007
  const dfg::Dfg g = twoCycleMuls(2);
  sched::Schedule s(g);
  s.setNumSteps(2);
  s.place(g.findByName("m1"), 1, 1);
  s.place(g.findByName("m2"), 1, 1);  // both hold multiplier#1 in steps 1-2
  sched::Constraints c;
  c.timeSteps = 2;
  EXPECT_EQ(messagesOf(lintSchedule(s, c), kSchedOccupancy),
            std::vector<std::string>{
                "occupancy conflict on multiplier#1: 'm1'@1 vs 'm2'@1"});
}

TEST(LintSchedule, OccupancyOnPipelinedUnitNeedsEqualStarts) {  // SCH007
  const dfg::Dfg g = twoCycleMuls(3);
  sched::Schedule s(g);
  s.setNumSteps(3);
  s.place(g.findByName("m1"), 1, 1);
  s.place(g.findByName("m2"), 2, 1);  // overlaps m1's second stage: legal
  s.place(g.findByName("m3"), 1, 1);  // a second initiation in step 1
  sched::Constraints c;
  c.timeSteps = 3;
  c.pipelinedFus.insert(dfg::FuType::Multiplier);
  EXPECT_EQ(messagesOf(lintSchedule(s, c), kSchedOccupancy),
            std::vector<std::string>{
                "occupancy conflict on multiplier#1: 'm1'@1 vs 'm3'@1"});
}

TEST(LintSchedule, OccupancyFoldsStepsModLatency) {  // SCH007
  const dfg::Dfg g = twoCycleMuls(2);
  sched::Schedule s(g);
  s.setNumSteps(4);
  s.place(g.findByName("m1"), 1, 1);  // steps 1-2 fold to 0, 1
  s.place(g.findByName("m2"), 3, 1);  // steps 3-4 fold to 2, 0
  sched::Constraints c;
  c.timeSteps = 4;
  c.latency = 3;
  EXPECT_EQ(messagesOf(lintSchedule(s, c), kSchedOccupancy),
            std::vector<std::string>{
                "occupancy conflict on multiplier#1: 'm1'@1 vs 'm2'@3"});
}

TEST(LintSchedule, OccupancyOpLongerThanLatencyOverlapsItself) {  // SCH007
  const dfg::Dfg g = twoCycleMuls(2);
  sched::Schedule s(g);
  s.setNumSteps(3);
  s.place(g.findByName("m1"), 1, 1);
  s.place(g.findByName("m2"), 2, 1);
  sched::Constraints c;
  c.timeSteps = 3;
  c.latency = 1;  // every step starts a new initiation of each op
  EXPECT_EQ(messagesOf(lintSchedule(s, c), kSchedOccupancy),
            (std::vector<std::string>{
                "occupancy conflict on multiplier#1: 'm1'@1 overlaps its own "
                "next initiation (2 cycles, latency 1)",
                "occupancy conflict on multiplier#1: 'm1'@1 vs 'm2'@2",
                "occupancy conflict on multiplier#1: 'm2'@2 overlaps its own "
                "next initiation (2 cycles, latency 1)"}));
  // A pipelined unit takes one initiation per step: only the shared folded
  // start remains.
  c.pipelinedFus.insert(dfg::FuType::Multiplier);
  EXPECT_EQ(messagesOf(lintSchedule(s, c), kSchedOccupancy),
            std::vector<std::string>{
                "occupancy conflict on multiplier#1: 'm1'@1 vs 'm2'@2"});
}

TEST(LintSchedule, OccupancyExclusivePairIsSilent) {  // SCH007
  const dfg::Dfg g = test::branchy();
  sched::Schedule s(g);
  s.setNumSteps(2);
  s.place(g.findByName("t1"), 1, 1);
  s.place(g.findByName("e1"), 1, 1);  // the other arm of c1: may share
  s.place(g.findByName("j"), 2, 1);
  sched::Constraints c;
  c.timeSteps = 2;
  EXPECT_TRUE(lintSchedule(s, c).empty());
}

TEST(LintSchedule, ResourceLimitFires) {  // SCH008
  const dfg::Dfg g = test::addParallel(2);
  sched::Schedule s(g);
  s.setNumSteps(1);
  const auto ops = g.operations();
  s.place(ops[0], 1, 1);
  s.place(ops[1], 1, 2);
  sched::Constraints c;
  c.timeSteps = 1;
  c.fuLimit[dfg::FuType::Adder] = 1;
  EXPECT_TRUE(fires(lintSchedule(s, c), kSchedResourceLimit));
}

// ---------------------------------------------------------------------------
// RTL rule positives
// ---------------------------------------------------------------------------

TEST(LintRtl, DoubleBindingFires) {  // RTL001
  auto res = synth(test::smallDiamond(), 3);
  ASSERT_TRUE(res.feasible);
  rtl::Datapath d = res.datapath;
  d.alus[0].ops.push_back(d.alus[0].ops.front());
  sched::Constraints c;
  c.timeSteps = 3;
  EXPECT_TRUE(fires(lintDatapath(d, c, rtl::DesignStyle::Unrestricted),
                    kRtlDoubleBinding));
}

TEST(LintRtl, NonOpBoundFires) {  // RTL002
  auto res = synth(test::smallDiamond(), 3);
  ASSERT_TRUE(res.feasible);
  rtl::Datapath d = res.datapath;
  d.alus[0].ops.push_back(d.graph->findByName("a"));  // a primary input
  sched::Constraints c;
  c.timeSteps = 3;
  EXPECT_TRUE(fires(lintDatapath(d, c, rtl::DesignStyle::Unrestricted),
                    kRtlNonOpBound));
}

TEST(LintRtl, UnsupportedOpFires) {  // RTL003
  auto res = synth(test::smallDiamond(), 3);
  ASSERT_TRUE(res.feasible);
  rtl::Datapath d = res.datapath;
  const dfg::NodeId y = d.graph->findByName("y");  // the multiplication
  for (auto& a : d.alus) {
    if (d.lib->module(a.module).supports(dfg::FuType::Multiplier)) continue;
    for (auto& other : d.alus)
      other.ops.erase(std::remove(other.ops.begin(), other.ops.end(), y),
                      other.ops.end());
    a.ops.push_back(y);
    sched::Constraints c;
    c.timeSteps = 3;
    EXPECT_TRUE(fires(lintDatapath(d, c, rtl::DesignStyle::Unrestricted),
                      kRtlUnsupportedOp));
    return;
  }
  GTEST_SKIP() << "every ALU in this synthesis supports mul";
}

TEST(LintRtl, UnboundOpFires) {  // RTL004
  auto res = synth(test::smallDiamond(), 3);
  ASSERT_TRUE(res.feasible);
  rtl::Datapath d = res.datapath;
  const dfg::NodeId y = d.graph->findByName("y");
  for (auto& a : d.alus)
    a.ops.erase(std::remove(a.ops.begin(), a.ops.end(), y), a.ops.end());
  sched::Constraints c;
  c.timeSteps = 3;
  const LintReport r = lintDatapath(d, c, rtl::DesignStyle::Unrestricted);
  ASSERT_TRUE(fires(r, kRtlUnboundOp));
  EXPECT_EQ(r.byRule(kRtlUnboundOp).front().loc.node, "y");
}

TEST(LintRtl, AluOverlapFires) {  // RTL005
  // Three independent adds bound to one ALU in one step: every pair clashes,
  // reported in (i, j) order of the ALU's op list.
  const dfg::Dfg g = test::addParallel(3);
  sched::Schedule s(g);
  s.setNumSteps(1);
  for (dfg::NodeId op : g.operations()) s.place(op, 1, 1);
  const rtl::Datapath d = bindColumns(s);
  ASSERT_EQ(d.alus.size(), 1u);
  sched::Constraints c;
  c.timeSteps = 1;
  const LintReport r = lintDatapath(d, c, rtl::DesignStyle::Unrestricted);
  EXPECT_EQ(messagesOf(r, kRtlAluOverlap),
            (std::vector<std::string>{
                "ALU0 executes 'p0' and 'p1' concurrently",
                "ALU0 executes 'p0' and 'p2' concurrently",
                "ALU0 executes 'p1' and 'p2' concurrently"}));
  EXPECT_EQ(r.byRule(kRtlAluOverlap).front().entity, EntityKind::Alu);
}

TEST(LintRtl, AluOpLongerThanLatencyOverlapsItself) {  // RTL005
  const dfg::Dfg g = twoCycleMuls(1);
  sched::Schedule s(g);
  s.setNumSteps(2);
  s.place(g.findByName("m1"), 1, 1);
  sched::Constraints c;
  c.timeSteps = 2;
  c.latency = 1;
  // The default library's multiplier has one stage.
  const rtl::Datapath d = bindColumns(s);
  EXPECT_EQ(messagesOf(lintDatapath(d, c, rtl::DesignStyle::Unrestricted),
                       kRtlAluOverlap),
            std::vector<std::string>{"ALU0 executes 'm1', which overlaps its "
                                     "own next initiation (2 cycles, latency "
                                     "1)"});

  // A two-stage multiplier starts one initiation per step.
  static const celllib::CellLibrary lib =
      celllib::ncrLike({.pipelinedMultiplier = true});
  std::vector<rtl::AluInstance> alus(1);
  for (celllib::ModuleId m : lib.capableModules(dfg::FuType::Multiplier))
    if (lib.module(m).stages > 1) alus[0].module = m;
  ASSERT_GT(lib.module(alus[0].module).stages, 1);
  alus[0].ops = {g.findByName("m1")};
  EXPECT_TRUE(lintDatapath(rtl::buildDatapath(g, lib, s, alus), c,
                           rtl::DesignStyle::Unrestricted)
                  .empty());
}

TEST(LintRtl, SelfLoopFiresUnderStyle2) {  // RTL006
  auto res = synth(test::addChain(2), 2);
  ASSERT_TRUE(res.feasible);
  const rtl::Datapath& d = res.datapath;
  const dfg::NodeId c1 = d.graph->findByName("c1");
  const dfg::NodeId c2 = d.graph->findByName("c2");
  if (d.aluIndexOf(c1) != d.aluIndexOf(c2))
    GTEST_SKIP() << "chained adds landed on distinct ALUs";
  sched::Constraints c;
  c.timeSteps = 2;
  EXPECT_TRUE(
      fires(lintDatapath(d, c, rtl::DesignStyle::NoSelfLoop), kRtlSelfLoop));
}

TEST(LintRtl, RegisterOverlapFires) {  // RTL007
  // Three adds in step 1, each an output live through the end: packing all
  // three results into R0 overlaps every pair, reported in packed order.
  static const celllib::CellLibrary lib = celllib::ncrLike();
  const dfg::Dfg g = test::addParallel(3);
  sched::Schedule s(g);
  s.setNumSteps(1);
  int col = 0;
  for (dfg::NodeId op : g.operations()) s.place(op, 1, ++col);
  const std::vector<alloc::Lifetime> lts = alloc::computeLifetimes(g, s);
  alloc::RegAllocation regs;
  regs.registers.resize(1);
  for (std::size_t i = 0; i < lts.size(); ++i) {
    if (!lts[i].needsRegister) continue;
    if (dfg::isSchedulable(g.kindOf(lts[i].producer)))
      regs.registers[0].push_back(i);
    else
      regs.registers.push_back({i});
  }
  const rtl::Datapath d =
      rtl::buildDatapath(g, lib, s, rtl::bindByColumns(g, lib, s, {}), regs);
  sched::Constraints c;
  c.timeSteps = 1;
  const LintReport r = lintDatapath(d, c, rtl::DesignStyle::Unrestricted);
  EXPECT_EQ(messagesOf(r, kRtlRegisterOverlap),
            (std::vector<std::string>{
                "register R0 holds overlapping signals 'p0' and 'p1'",
                "register R0 holds overlapping signals 'p0' and 'p2'",
                "register R0 holds overlapping signals 'p1' and 'p2'"}));
  EXPECT_EQ(r.byRule(kRtlRegisterOverlap).front().entity,
            EntityKind::Register);
}

TEST(LintRtl, MissingRegisterFires) {  // RTL008
  auto res = synth(workloads::diffeq(), 4);
  ASSERT_TRUE(res.feasible);
  rtl::Datapath d = res.datapath;
  for (const alloc::Lifetime& lt : d.lifetimes) {
    if (!lt.needsRegister) continue;
    d.regOfSignal[lt.producer] = -1;
    sched::Constraints c;
    c.timeSteps = 4;
    EXPECT_TRUE(fires(lintDatapath(d, c, rtl::DesignStyle::Unrestricted),
                      kRtlMissingRegister));
    return;
  }
  GTEST_SKIP() << "no cross-step lifetime in this synthesis";
}

TEST(LintRtl, UnconnectedPortFires) {  // RTL009
  auto res = synth(test::smallDiamond(), 3);
  ASSERT_TRUE(res.feasible);
  rtl::Datapath d = res.datapath;
  for (auto& w : d.leftPort) w.selects.clear();  // sever every left operand
  sched::Constraints c;
  c.timeSteps = 3;
  const LintReport r = lintDatapath(d, c, rtl::DesignStyle::Unrestricted);
  ASSERT_TRUE(fires(r, kRtlUnconnectedPort));
  EXPECT_EQ(r.byRule(kRtlUnconnectedPort).front().entity, EntityKind::Port);
}

TEST(LintRtl, BusContentionFires) {  // RTL010
  auto res = synth(workloads::diffeq(), 4);
  ASSERT_TRUE(res.feasible);
  const rtl::Datapath& d = res.datapath;
  const rtl::ControllerFsm fsm = rtl::buildController(d);
  rtl::BusPlan plan = rtl::planBuses(d, fsm);
  if (plan.busCount == 0) GTEST_SKIP() << "no bus transfers in this design";
  plan.busCount = 0;  // starve the plan: every transfer now contends
  const LintReport r = lintBusPlan(d, fsm, plan);
  ASSERT_TRUE(fires(r, kRtlBusContention));
  EXPECT_GE(r.byRule(kRtlBusContention).front().loc.step, 1);
}

TEST(LintRtl, IdleBusFires) {  // RTL011
  auto res = synth(workloads::diffeq(), 4);
  ASSERT_TRUE(res.feasible);
  const rtl::Datapath& d = res.datapath;
  const rtl::ControllerFsm fsm = rtl::buildController(d);
  rtl::BusPlan plan = rtl::planBuses(d, fsm);
  plan.busCount += 1;  // one bus beyond peak demand: never driven
  EXPECT_EQ(lintBusPlan(d, fsm, plan).byRule(kRtlBusIdle).size(), 1u);
}

TEST(LintRtl, BadFieldRefFires) {  // RTL012
  auto res = synth(workloads::diffeq(), 4);
  ASSERT_TRUE(res.feasible);
  const rtl::Datapath& d = res.datapath;
  const rtl::ControllerFsm fsm = rtl::buildController(d);
  rtl::MicrocodeRom rom = rtl::buildMicrocode(d, fsm);
  ASSERT_FALSE(rom.fields.empty());
  rom.fields[0].unit = 99;  // no such ALU
  EXPECT_TRUE(fires(lintMicrocode(d, fsm, rom), kRtlBadFieldRef));
}

TEST(LintRtl, FieldOverflowFires) {  // RTL013
  auto res = synth(workloads::diffeq(), 4);
  ASSERT_TRUE(res.feasible);
  const rtl::Datapath& d = res.datapath;
  const rtl::ControllerFsm fsm = rtl::buildController(d);

  rtl::MicrocodeRom shape = rtl::buildMicrocode(d, fsm);
  shape.words += 1;  // ROM no longer matches the FSM
  EXPECT_TRUE(fires(lintMicrocode(d, fsm, shape), kRtlFieldOverflow));

  rtl::MicrocodeRom wide = rtl::buildMicrocode(d, fsm);
  ASSERT_FALSE(wide.rows.empty());
  ASSERT_FALSE(wide.fields.empty());
  wide.rows[0][0] = 1 << wide.fields[0].bits;  // value exceeds field width
  EXPECT_TRUE(fires(lintMicrocode(d, fsm, wide), kRtlFieldOverflow));
}

// ---------------------------------------------------------------------------
// Report mechanics and the JSON round trip
// ---------------------------------------------------------------------------

TEST(LintReportTest, CountsAndThresholds) {
  LintReport r;
  Diagnostic w;
  w.rule = "DFG009";
  w.severity = Severity::Warning;
  w.message = "only a warning";
  r.add(w);
  EXPECT_EQ(r.count(Severity::Warning), 1u);
  EXPECT_EQ(r.count(Severity::Error), 0u);
  EXPECT_FALSE(r.hasErrors());
  EXPECT_TRUE(r.hasAtOrAbove(Severity::Note));
  EXPECT_TRUE(r.hasAtOrAbove(Severity::Warning));
  EXPECT_FALSE(r.hasAtOrAbove(Severity::Error));
}

TEST(LintReportTest, LegacyMessagesPreserveOrder) {
  dfg::Dfg g = test::smallDiamond();
  g.mutableNode(g.findByName("y")).cycles = 0;
  g.mutableNode(g.findByName("t")).name = "s";
  const LintReport r = lintDfg(g);
  const auto msgs = r.messages();
  ASSERT_EQ(msgs.size(), r.size());
  for (std::size_t i = 0; i < msgs.size(); ++i)
    EXPECT_EQ(msgs[i], r.diagnostics()[i].message);
}

TEST(LintReportTest, ToTextCarriesRuleAndLocation) {
  Diagnostic d;
  d.rule = "SCH004";
  d.severity = Severity::Error;
  d.entity = EntityKind::Node;
  d.loc.node = "y";
  d.loc.step = 2;
  d.message = "precedence violated";
  d.fixit = "move it";
  const std::string t = d.toText();
  EXPECT_NE(t.find("error[SCH004]"), std::string::npos);
  EXPECT_NE(t.find("'y'"), std::string::npos);
  EXPECT_NE(t.find("precedence violated"), std::string::npos);
  EXPECT_NE(t.find("fix:"), std::string::npos);
}

TEST(LintJson, RoundTripPreservesEveryDiagnostic) {
  dfg::Dfg g = test::smallDiamond();
  g.mutableNode(g.findByName("s")).inputs[0] = g.findByName("y");  // cycle + fwd ref
  g.mutableNode(g.findByName("f")).branchPath = "c1";
  g.markOutput(999, "bogus");
  const LintReport r = lintDfg(g);
  ASSERT_GE(r.size(), 3u);

  const std::string json = r.renderJson("diamond");
  std::string err;
  const auto parsed = parseDiagnosticsJson(json, &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(*parsed, r.diagnostics());
}

TEST(LintJson, EscapesSpecialCharacters) {
  LintReport r;
  Diagnostic d;
  d.rule = "DFG000";
  d.severity = Severity::Error;
  d.entity = EntityKind::Design;
  d.message = "quote \" backslash \\ newline \n tab \t done";
  d.loc.detail = "path \"a\" -> b";
  r.add(d);
  const std::string json = r.renderJson("tricky \"name\"");
  std::string err;
  const auto parsed = parseDiagnosticsJson(json, &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(*parsed, r.diagnostics());
}

TEST(LintJson, MalformedInputIsRejected) {
  std::string err;
  EXPECT_FALSE(parseDiagnosticsJson("{", &err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(parseDiagnosticsJson("[]", &err).has_value());
  EXPECT_FALSE(parseDiagnosticsJson("", &err).has_value());
}

TEST(LintJson, RenderedJsonCarriesCounts) {
  dfg::Dfg g = test::smallDiamond();
  g.mutableNode(g.findByName("y")).cycles = 0;
  const LintReport r = lintDfg(g);
  const std::string json = r.renderJson("diamond");
  EXPECT_NE(json.find("\"design\""), std::string::npos);
  EXPECT_NE(json.find("\"counts\""), std::string::npos);
  EXPECT_NE(json.find("\"DFG005\""), std::string::npos);
}

TEST(LintJson, SchemaVersionIsTwoAndEnforced) {
  LintReport r;
  const std::string json = r.renderJson("empty");
  EXPECT_NE(json.find("\"schema\": 2"), std::string::npos);
  std::string err;
  EXPECT_FALSE(parseDiagnosticsJson(
                   "{\"schema\": 1, \"design\": \"x\", \"diagnostics\": []}",
                   &err)
                   .has_value());
  EXPECT_NE(err.find("schema"), std::string::npos);
}

// ---------------------------------------------------------------------------
// LIB rule positives & negatives
// ---------------------------------------------------------------------------

TEST(LintLibrary, CleanLibraryIsSilentForEveryLibRule) {
  const std::set<dfg::FuType> needed = {
      dfg::FuType::Multiplier, dfg::FuType::Adder, dfg::FuType::Subtractor,
      dfg::FuType::Comparator};
  const LintReport r = lintLibrary(celllib::ncrLike(), needed);
  for (const RuleInfo& rule : allRules())
    if (rule.family == "lib") {
      EXPECT_FALSE(fires(r, rule.id)) << rule.id;
    }
  EXPECT_TRUE(r.empty());
}

TEST(LintLibrary, DuplicateCellFires) {  // LIB001
  celllib::CellLibrary lib;
  lib.addModule({"alu", {dfg::FuType::Adder, dfg::FuType::Subtractor}, 100.0, 10.0, 1});
  lib.addModule({"alu", {dfg::FuType::Adder, dfg::FuType::Subtractor}, 200.0, 12.0, 1});
  const LintReport r = lintLibrary(lib);
  ASSERT_TRUE(fires(r, kLibDuplicateCell));
  EXPECT_EQ(r.byRule(kLibDuplicateCell).front().loc.detail, "alu");
}

TEST(LintLibrary, BadAreaAndDelayFire) {  // LIB002 + LIB003
  celllib::CellLibrary lib;
  lib.addModule({"freebie", {dfg::FuType::Adder, dfg::FuType::Subtractor}, 0.0, -1.0, 1});
  const LintReport r = lintLibrary(lib);
  EXPECT_TRUE(fires(r, kLibBadArea));
  ASSERT_TRUE(fires(r, kLibBadDelay));
  EXPECT_EQ(r.byRule(kLibBadDelay).front().severity, Severity::Warning);
}

TEST(LintLibrary, MissingCellFiresOnlyWhenNeeded) {  // LIB004
  celllib::CellLibrary lib;
  lib.addModule({"alu", {dfg::FuType::Adder, dfg::FuType::Subtractor}, 100.0, 10.0, 1});
  EXPECT_FALSE(fires(lintLibrary(lib), kLibMissingCell));
  const LintReport r = lintLibrary(lib, {dfg::FuType::Multiplier});
  ASSERT_TRUE(fires(r, kLibMissingCell));
  EXPECT_EQ(r.byRule(kLibMissingCell).front().loc.detail, "multiplier");
}

TEST(LintLibrary, BadStageCountFires) {  // LIB005
  celllib::CellLibrary lib;
  lib.addModule({"alu", {dfg::FuType::Adder, dfg::FuType::Subtractor}, 100.0, 10.0, 0});
  EXPECT_TRUE(fires(lintLibrary(lib), kLibBadStages));
}

TEST(LintLibrary, NonMonotoneMuxTableFires) {  // LIB006
  celllib::CellLibrary lib;
  lib.addModule({"alu", {dfg::FuType::Adder, dfg::FuType::Subtractor}, 100.0, 10.0, 1});
  lib.setMuxCosts({0.0, 0.0, 600.0, 400.0});  // 3-input mux cheaper than 2
  const LintReport r = lintLibrary(lib);
  ASSERT_TRUE(fires(r, kLibMuxTable));
  EXPECT_EQ(r.byRule(kLibMuxTable).size(), 1u);  // one report per table
}

}  // namespace
}  // namespace mframe::analysis
