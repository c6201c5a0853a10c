// The dataflow-analysis framework: engine semantics (one sweep per
// direction, the refusal of a graph out of topological order), the four
// passes (constants, ranges/widths, demand, duplicates), the OPT
// diagnostics, the applyFixes rewriter — held to the simulator's and the
// translation validator's standard — and the golden `analyze --json`
// outputs for the benchmark suite.
#include "analysis/dataflow/analyze.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "analysis/analyze.h"
#include "analysis/dataflow/engine.h"
#include "analysis/lint.h"
#include "celllib/ncr_like.h"
#include "core/mfsa.h"
#include "dfg/builder.h"
#include "dfg/parser.h"
#include "dfg/stats.h"
#include "helpers.h"
#include "sim/dfg_eval.h"
#include "workloads/benchmarks.h"

namespace mframe::analysis::dataflow {
namespace {

bool fires(const LintReport& r, std::string_view rule) {
  return !r.byRule(rule).empty();
}

/// Seeded with folds and dead code: c1 = 4*4 and o1 = m + c1 fold to
/// constants (OPT001, as does m = s*0 via the absorbing rule), which makes
/// s = x + y dead after folding (OPT002) — it feeds nothing else.
/// out = o1 + x stays varying, so the design still computes something.
dfg::Dfg foldable() {
  dfg::Builder b("foldable");
  const auto x = b.input("x");
  const auto y = b.input("y");
  const auto k0 = b.constant(0, "k0");
  const auto k4 = b.constant(4, "k4");
  const auto c1 = b.mul(k4, k4, "c1");
  const auto s = b.add(x, y, "s");
  const auto m = b.mul(s, k0, "m");
  const auto o1 = b.add(m, c1, "o1");
  const auto out = b.add(o1, x, "out");
  b.output(out, "o");
  return std::move(b).build();
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

TEST(DataflowEngine, ForwardFixpointOnDagIsOneSweep) {
  const dfg::Dfg g = test::addChain(6);
  int visits = 0;
  analyzeConstants(g, 16, &visits);
  // One sweep in id order visits every node once.
  EXPECT_EQ(visits, static_cast<int>(g.size()));
}

TEST(DataflowEngine, RefusesAGraphOutOfTopologicalOrder) {
  // Hand-build a dependence cycle (validate() rejects it): inc0 -> inc1 ->
  // inc0. inc0 reads an id above its own, and inc1 feeds an id below its
  // own, so both sweep directions refuse the graph and name the node.
  dfg::Dfg g("loopy");
  dfg::Node a;
  a.kind = dfg::OpKind::Inc;
  a.name = "inc0";
  const auto ia = g.addNode(a);
  dfg::Node b;
  b.kind = dfg::OpKind::Inc;
  b.name = "inc1";
  b.inputs = {ia};
  const auto ib = g.addNode(b);
  g.mutableNode(ia).inputs = {ib};
  g.freeze();

  const auto refusal = [](auto&& run) -> std::string {
    try {
      run();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(refusal([&] { analyzeRanges(g); }).find("'inc0'"),
            std::string::npos);
  const std::vector<ConstValue> varying(g.size(), ConstValue::varying());
  EXPECT_NE(refusal([&] { analyzeDemand(g, varying); }).find("'inc1'"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Constant propagation
// ---------------------------------------------------------------------------

TEST(ConstProp, FoldsThroughArithmetic) {
  dfg::Builder b("consts");
  const auto k2 = b.constant(2, "k2");
  const auto k3 = b.constant(3, "k3");
  const auto s = b.add(k2, k3, "s");
  const auto p = b.mul(s, s, "p");
  b.output(p, "o");
  const dfg::Dfg g = std::move(b).build();

  const auto consts = analyzeConstants(g);
  EXPECT_TRUE(consts[s].isConst());
  EXPECT_EQ(consts[s].value, 5u);
  EXPECT_TRUE(consts[p].isConst());
  EXPECT_EQ(consts[p].value, 25u);
}

TEST(ConstProp, AbsorbingRulesFoldWithVaryingOperands) {
  dfg::Builder b("absorb");
  const auto x = b.input("x");
  const auto k0 = b.constant(0, "k0");
  const auto m = b.mul(x, k0, "m");      // x * 0 == 0
  const auto a = b.band(k0, x, "a");     // 0 & x == 0
  const auto d = b.div(x, k0, "d");      // x / 0 == 0 by convention
  const auto keep = b.add(x, k0, "keep");  // x + 0 is still x (varying)
  b.output(b.add(b.add(m, a, "t1"), b.add(d, keep, "t2"), "t3"), "o");
  const dfg::Dfg g = std::move(b).build();

  const auto consts = analyzeConstants(g);
  for (dfg::NodeId id : {m, a, d}) {
    EXPECT_TRUE(consts[id].isConst()) << g.node(id).name;
    EXPECT_EQ(consts[id].value, 0u) << g.node(id).name;
  }
  EXPECT_FALSE(consts[keep].isConst());
}

TEST(ConstProp, MasksAtTheAnalysisWordWidth) {
  dfg::Builder b("mask");
  const auto big = b.constant(0xFFFF, "big");
  const auto one = b.constant(1, "one");
  const auto wrap = b.add(big, one, "wrap");
  b.output(wrap, "o");
  const dfg::Dfg g = std::move(b).build();
  const auto consts = analyzeConstants(g, 16);
  ASSERT_TRUE(consts[wrap].isConst());
  EXPECT_EQ(consts[wrap].value, 0u);  // 0x10000 & 0xFFFF
}

// ---------------------------------------------------------------------------
// Ranges and widths
// ---------------------------------------------------------------------------

TEST(Ranges, DeclaredInputWidthsPropagate) {
  dfg::Builder b("narrow");
  const auto a = b.input("a", 4);  // 0..15
  const auto c = b.input("c", 4);
  const auto s = b.add(a, c, "s");       // 0..30
  const auto p = b.mul(s, s, "p");       // 0..900
  const auto cmp = b.lt(s, p, "cmp");    // 0..1
  b.output(cmp, "o");
  const dfg::Dfg g = std::move(b).build();

  const auto ranges = analyzeRanges(g);
  EXPECT_EQ(ranges[a], (Interval{0, 15}));
  EXPECT_EQ(ranges[s], (Interval{0, 30}));
  EXPECT_EQ(ranges[p], (Interval{0, 900}));
  EXPECT_EQ(ranges[cmp], (Interval{0, 1}));

  const auto widths = inferWidths(ranges);
  EXPECT_EQ(widths[a], 4);
  EXPECT_EQ(widths[s], 5);
  EXPECT_EQ(widths[p], 10);
  EXPECT_EQ(widths[cmp], 1);
}

TEST(Ranges, PossibleWraparoundClampsToFullRange) {
  dfg::Builder b("wrap");
  const auto x = b.input("x");  // full 16-bit range
  const auto y = b.input("y");
  const auto s = b.add(x, y, "s");    // may wrap
  const auto d = b.sub(x, y, "d");    // may go negative
  const auto shr = b.op(dfg::OpKind::Shr, {x, y}, "shr");  // amount varies
  b.output(b.add(s, b.add(d, shr, "t1"), "t2"), "o");
  const dfg::Dfg g = std::move(b).build();

  const auto ranges = analyzeRanges(g);
  EXPECT_EQ(ranges[s], Interval::full(16));
  EXPECT_EQ(ranges[d], Interval::full(16));
  EXPECT_EQ(ranges[shr], Interval::full(16));  // sound: 0..x.hi
}

TEST(Ranges, LogicAndShiftBounds) {
  dfg::Builder b("bits");
  const auto a = b.input("a", 8);          // 0..255
  const auto c = b.input("c", 4);          // 0..15
  const auto an = b.band(a, c, "an");      // 0..15
  const auto k2 = b.constant(2, "k2");
  const auto sl = b.op(dfg::OpKind::Shl, {c, k2}, "sl");  // 0..60
  const auto nt = b.bnot(c, "nt");         // 65520..65535
  b.output(b.add(an, b.add(sl, nt, "t1"), "t2"), "o");
  const dfg::Dfg g = std::move(b).build();

  const auto ranges = analyzeRanges(g);
  EXPECT_EQ(ranges[an], (Interval{0, 15}));
  EXPECT_EQ(ranges[sl], (Interval{0, 60}));
  EXPECT_EQ(ranges[nt], (Interval{0xFFF0, 0xFFFF}));
}

// ---------------------------------------------------------------------------
// Demand / liveness
// ---------------------------------------------------------------------------

TEST(Demand, OpsFeedingOnlyFoldsAreDead) {
  const dfg::Dfg g = foldable();
  const auto consts = analyzeConstants(g);
  const auto demand = analyzeDemand(g, consts);
  const auto needed = resultNeeded(g, demand);

  const auto s = g.findByName("s");
  const auto m = g.findByName("m");
  const auto o1 = g.findByName("o1");
  const auto out = g.findByName("out");
  EXPECT_FALSE(demand[s]) << "s only feeds the folded multiply";
  EXPECT_FALSE(demand[m]) << "m folds to 0";
  EXPECT_FALSE(demand[o1]) << "o1 folds to 16";
  EXPECT_TRUE(demand[out]);
  EXPECT_TRUE(needed[o1]) << "out still reads o1's (folded) value";
  EXPECT_FALSE(needed[m]) << "m's only consumer itself folds";
  EXPECT_FALSE(needed[s]);
}

// ---------------------------------------------------------------------------
// Duplicates
// ---------------------------------------------------------------------------

TEST(Duplicates, FindsRepeatsIncludingCommutedOperands) {
  dfg::Builder b("dups");
  const auto x = b.input("x");
  const auto y = b.input("y");
  const auto a1 = b.add(x, y, "a1");
  const auto a2 = b.add(y, x, "a2");  // commuted: same value number
  const auto d1 = b.sub(x, y, "d1");
  const auto d2 = b.sub(y, x, "d2");  // NOT commutative: distinct
  b.output(b.mul(a1, a2, "m1"), "o1");
  b.output(b.mul(d1, d2, "m2"), "o2");
  const dfg::Dfg g = std::move(b).build();

  const auto groups = findDuplicateExprs(g);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].first, a1);
  ASSERT_EQ(groups[0].repeats.size(), 1u);
  EXPECT_EQ(groups[0].repeats[0], a2);
}

TEST(Duplicates, DiffeqRecomputesUTimesDx) {
  const auto groups = findDuplicateExprs(workloads::diffeq());
  ASSERT_EQ(groups.size(), 1u);  // m2 and m6 both compute u * dx
}

// ---------------------------------------------------------------------------
// OPT diagnostics
// ---------------------------------------------------------------------------

TEST(OptRules, AllFourRulesFire) {
  const DataflowResult r = lintDataflow(foldable());
  EXPECT_TRUE(fires(r.report, kOptFoldableConst));
  EXPECT_TRUE(fires(r.report, kOptDeadOp));

  const DataflowResult rd = lintDataflow(workloads::diffeq());
  EXPECT_TRUE(fires(rd.report, kOptDuplicateExpr));

  // Narrow declared input widths leave s = a + c needing only 5 of its 16
  // default bits.
  dfg::Builder b("narrow");
  const auto s = b.add(b.input("a", 4), b.input("c", 4), "s");
  b.output(s, "o");
  const DataflowResult rn = lintDataflow(std::move(b).build());
  const auto wide = rn.report.byRule(kOptOverWideOp);
  ASSERT_EQ(wide.size(), 1u);
  EXPECT_EQ(wide[0].loc.node, "s");
  EXPECT_NE(wide[0].fixit.find("width=5"), std::string::npos);
}

TEST(OptRules, CleanDesignsStaySilent) {
  for (const dfg::Dfg& g : {test::smallDiamond(), workloads::chained()}) {
    const DataflowResult r = lintDataflow(g);
    for (const RuleInfo& rule : allRules()) {
      if (rule.family != "opt") continue;
      EXPECT_FALSE(fires(r.report, rule.id)) << g.name() << " " << rule.id;
    }
  }
}

TEST(OptRules, SeverityComesFromTheRegistry) {
  const DataflowResult r = lintDataflow(workloads::diffeq());
  for (const Diagnostic& d : r.report.diagnostics())
    EXPECT_EQ(d.severity, findRule(d.rule)->severity) << d.rule;
}

// ---------------------------------------------------------------------------
// applyFixes: fold + DCE, closed under simulation and the validator
// ---------------------------------------------------------------------------

std::map<std::string, sim::Word> someInputs(const dfg::Dfg& g) {
  std::map<std::string, sim::Word> in;
  sim::Word v = 3;
  for (const dfg::Node& n : g.nodes())
    if (n.kind == dfg::OpKind::Input) {
      in[n.name] = v;
      v = v * 7 + 5;  // deterministic, spread-out values
    }
  return in;
}

TEST(ApplyFixes, FoldsAndRemovesDeadOps) {
  const dfg::Dfg g = foldable();
  const dfg::Dfg fixed = applyFixes(g, lintDataflow(g));
  EXPECT_EQ(fixed.validate(), std::nullopt);
  // s and m fed only folded consumers; both vanish.
  EXPECT_EQ(fixed.findByName("s"), dfg::kNoNode);
  EXPECT_EQ(fixed.findByName("m"), dfg::kNoNode);
  // o1 is still read by `out`, so it survives as a literal constant.
  const auto o1 = fixed.findByName("o1");
  ASSERT_NE(o1, dfg::kNoNode);
  EXPECT_EQ(fixed.node(o1).kind, dfg::OpKind::Const);
  EXPECT_EQ(fixed.node(o1).constValue, 16);
  EXPECT_NE(fixed.findByName("out"), dfg::kNoNode);
  // Inputs survive even when folding orphans them.
  EXPECT_NE(fixed.findByName("x"), dfg::kNoNode);
  EXPECT_NE(fixed.findByName("y"), dfg::kNoNode);
}

TEST(ApplyFixes, PreservesSimulatedOutputsOnBenchmarks) {
  const dfg::Dfg designs[] = {
      foldable(),          workloads::tseng(),    workloads::chained(),
      workloads::diffeq(), workloads::fir8(),     workloads::arLattice(),
      workloads::ewfLike(), workloads::fdctLike(), workloads::iirBiquads()};
  for (const dfg::Dfg& g : designs) {
    const dfg::Dfg fixed = applyFixes(g, lintDataflow(g));
    ASSERT_EQ(fixed.validate(), std::nullopt) << g.name();
    const auto in = someInputs(g);
    const auto ref = sim::evalDfg(g, in);
    const auto got = sim::evalDfg(fixed, in);
    ASSERT_TRUE(ref.ok && got.ok) << g.name();
    EXPECT_EQ(got.outputs, ref.outputs) << g.name();
  }
}

TEST(ApplyFixes, FixedDesignsStayProvable) {
  // The acceptance contract: the rewritten graph, synthesized with MFSA,
  // still passes the translation validator on every benchmark design.
  const celllib::CellLibrary lib = celllib::ncrLike();
  const dfg::Dfg designs[] = {
      foldable(),          workloads::tseng(),    workloads::chained(),
      workloads::diffeq(), workloads::fir8(),     workloads::arLattice(),
      workloads::ewfLike(), workloads::fdctLike(), workloads::iirBiquads()};
  for (const dfg::Dfg& g : designs) {
    const dfg::Dfg fixed = applyFixes(g, lintDataflow(g));
    core::MfsaOptions opts;
    opts.constraints.timeSteps = dfg::computeStats(fixed).criticalPath;
    const core::MfsaResult r = core::runMfsa(fixed, lib, opts);
    ASSERT_TRUE(r.feasible) << g.name() << ": " << r.error;
    const LintReport proof = proveDatapath(r.datapath);
    EXPECT_TRUE(proof.empty())
        << g.name() << ":\n" << proof.renderText();
  }
}

TEST(ApplyFixes, IsIdempotent) {
  const dfg::Dfg g = foldable();
  const dfg::Dfg once = applyFixes(g, lintDataflow(g));
  const dfg::Dfg twice = applyFixes(once, lintDataflow(once));
  EXPECT_EQ(dfg::serialize(once), dfg::serialize(twice));
}

// ---------------------------------------------------------------------------
// Golden `analyze --json` outputs
// ---------------------------------------------------------------------------

AnalyzeResult analyzeForGolden(const dfg::Dfg& g) {
  static const celllib::CellLibrary lib = celllib::ncrLike();
  AnalyzeOptions opts;
  opts.constraints.clockNs = 200.0;
  opts.clockSet = true;
  return analyzeDesign(g, lib, opts);
}

std::string goldenPath(const std::string& name) {
  return std::string(MFRAME_TESTS_DIR) + "/golden/analyze_" + name + ".json";
}

TEST(AnalyzeGolden, JsonIsDeterministic) {
  const dfg::Dfg g = workloads::diffeq();
  const std::string a = analyzeForGolden(g).report.renderJson(g.name());
  const std::string b = analyzeForGolden(g).report.renderJson(g.name());
  EXPECT_EQ(a, b);
}

TEST(AnalyzeGolden, BenchmarksMatchCommittedJson) {
  const dfg::Dfg designs[] = {
      workloads::tseng(),     workloads::chained(),  workloads::diffeq(),
      workloads::fir8(),      workloads::arLattice(), workloads::ewfLike(),
      workloads::fdctLike(),  workloads::iirBiquads()};
  const bool update = std::getenv("MFRAME_UPDATE_GOLDEN") != nullptr;
  for (const dfg::Dfg& g : designs) {
    const std::string json = analyzeForGolden(g).report.renderJson(g.name());
    const std::string path = goldenPath(g.name());
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
}  // namespace mframe::analysis::dataflow
