#include <gtest/gtest.h>

#include "analysis/sched_rules.h"
#include "celllib/ncr_like.h"
#include "core/mfs.h"
#include "core/mfsa.h"
#include "lang/lower.h"
#include "lang/parser.h"
#include "sim/dfg_eval.h"

namespace mframe::lang {
namespace {

TEST(Lexer, TokenizesOperatorsAndKeywords) {
  const auto toks = tokenize("design d; a = b << 2 <= c != 1;");
  ASSERT_GE(toks.size(), 10u);
  EXPECT_EQ(toks[0].kind, Token::Kind::KwDesign);
  EXPECT_EQ(toks[1].text, "d");
  bool sawShl = false, sawLe = false, sawNe = false;
  for (const auto& t : toks) {
    if (t.kind == Token::Kind::Shl) sawShl = true;
    if (t.kind == Token::Kind::Le) sawLe = true;
    if (t.kind == Token::Kind::Ne) sawNe = true;
  }
  EXPECT_TRUE(sawShl && sawLe && sawNe);
}

TEST(Lexer, CommentsSkippedAndLinesCounted) {
  const auto toks = tokenize("# comment\n\ndesign x;\n");
  EXPECT_EQ(toks[0].kind, Token::Kind::KwDesign);
  EXPECT_EQ(toks[0].line, 3);
}

TEST(Lexer, RejectsStrayCharacters) {
  EXPECT_THROW(tokenize("design d; a = $;"), LangError);
}

// Regression: integer literals used to go through unchecked strtol, so an
// overflowing constant silently saturated. The lexer now rejects it with a
// diagnostic naming the literal and carrying the line number.
TEST(Lexer, RejectsOverflowingIntegerLiterals) {
  try {
    tokenize("design d;\na = b + 99999999999999999999999999;\n");
    FAIL() << "overflowing literal must not tokenize";
  } catch (const LangError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("99999999999999999999999999"), std::string::npos)
        << what;
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  }
  // The largest representable literal still tokenizes.
  const auto toks = tokenize("design d; a = 9223372036854775807;");
  bool found = false;
  for (const auto& t : toks)
    if (t.kind == Token::Kind::Number && t.number == 9223372036854775807L)
      found = true;
  EXPECT_TRUE(found);
}

TEST(Parser, PrecedenceMatchesC) {
  const Program p = parseProgram("design d;\ninput a, b, c;\nx = a + b * c;\n");
  ASSERT_EQ(p.stmts.size(), 1u);
  const Expr& root = *p.stmts[0]->value;
  ASSERT_EQ(root.kind, Expr::Kind::Binary);
  EXPECT_EQ(root.op, dfg::OpKind::Add);          // + at the top
  EXPECT_EQ(root.rhs->op, dfg::OpKind::Mul);     // * binds tighter
}

TEST(Parser, ParenthesesOverridePrecedence) {
  const Program p = parseProgram("design d;\ninput a, b, c;\nx = (a + b) * c;\n");
  EXPECT_EQ(p.stmts[0]->value->op, dfg::OpKind::Mul);
}

TEST(Parser, AttributesOnAssignment) {
  const Program p =
      parseProgram("design d;\ninput a, b;\nm = a * b [cycles=2] [delay=160];\n");
  EXPECT_EQ(p.stmts[0]->cycles, 2);
  EXPECT_DOUBLE_EQ(p.stmts[0]->delayNs, 160.0);
}

TEST(Parser, IfElseAndLoopStructure) {
  const Program p = parseProgram(R"(
design d;
input a, b;
if (a < b) { t = a + 1; } else { u = b + 1; }
loop l1 within 3 bound 10 { s = a + b; }
)");
  ASSERT_EQ(p.stmts.size(), 2u);
  EXPECT_EQ(p.stmts[0]->kind, Stmt::Kind::If);
  EXPECT_EQ(p.stmts[0]->thenBody.size(), 1u);
  EXPECT_EQ(p.stmts[0]->elseBody.size(), 1u);
  EXPECT_EQ(p.stmts[1]->kind, Stmt::Kind::Loop);
  EXPECT_EQ(p.stmts[1]->within, 3);
  EXPECT_EQ(p.stmts[1]->tripBound, 10);
}

TEST(Parser, ErrorsHaveLines) {
  try {
    parseProgram("design d;\ninput a;\nx = ;\n");
    FAIL();
  } catch (const LangError& e) {
    EXPECT_EQ(e.line(), 3);
  }
}

TEST(Lower, StraightLineProgram) {
  const dfg::Dfg g = compileFlat(R"(
design demo;
input a, b;
output y;
s = a + b;
y = s * 3;
)");
  EXPECT_FALSE(g.validate().has_value());
  EXPECT_EQ(g.operations().size(), 2u);
  const auto r = sim::evalDfg(g, {{"a", 2}, {"b", 3}});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.outputs.at("y"), 15u);
}

TEST(Lower, SsaRenamingOnReassignment) {
  const dfg::Dfg g = compileFlat(R"(
design ssa;
input a;
output y;
v = a + 1;
v = v * 2;
y = v + 3;
)");
  const auto r = sim::evalDfg(g, {{"a", 5}});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.outputs.at("y"), ((5 + 1) * 2 + 3u));
}

TEST(Lower, ConstantsDeduplicated) {
  const dfg::Dfg g = compileFlat(R"(
design k;
input a;
output y;
p = a * 3;
q = a + 3;
y = p + q;
)");
  int constCount = 0;
  for (const dfg::Node& n : g.nodes())
    if (n.kind == dfg::OpKind::Const) ++constCount;
  EXPECT_EQ(constCount, 1);
}

TEST(Lower, AttributesReachTheRootOp) {
  const dfg::Dfg g = compileFlat(R"(
design attr;
input a, b;
output m;
m = a * b [cycles=2];
)");
  const dfg::NodeId m = g.findByName("m");
  EXPECT_EQ(g.node(m).cycles, 2);
}

TEST(Lower, ConditionalArmsAreMutuallyExclusive) {
  const dfg::Dfg g = compileFlat(R"(
design cond;
input a, b;
output t, u;
if (a < b) { t = a + 1; } else { u = b + 1; }
)");
  const dfg::NodeId t = g.findByName("t");
  const dfg::NodeId u = g.findByName("u");
  ASSERT_NE(t, dfg::kNoNode);
  ASSERT_NE(u, dfg::kNoNode);
  EXPECT_TRUE(g.mutuallyExclusive(t, u));
  // The condition op itself is unconditional.
  const dfg::NodeId c = g.findByName("c1_cond");
  ASSERT_NE(c, dfg::kNoNode);
  EXPECT_TRUE(g.node(c).branchPath.empty());
}

TEST(Lower, NestedConditionals) {
  const dfg::Dfg g = compileFlat(R"(
design nest;
input a, b;
output p, q;
if (a < b) {
  if (a < 2) { p = a + 1; } else { q = a + 2; }
}
)");
  const dfg::NodeId p = g.findByName("p");
  const dfg::NodeId q = g.findByName("q");
  EXPECT_TRUE(g.mutuallyExclusive(p, q));
  EXPECT_EQ(g.node(p).branchPath, "c1.t.c2.t");
}

TEST(Lower, PhiMergeRejected) {
  EXPECT_THROW(compileFlat(R"(
design phi;
input a, b;
output v;
if (a < b) { v = a + 1; } else { v = b + 1; }
)"),
               LangError);
}

TEST(Lower, SingleArmAssignmentVisibleAfterIf) {
  const dfg::Dfg g = compileFlat(R"(
design one;
input a, b;
output y;
if (a < b) { t = a + 1; }
y = t * 2;
)");
  EXPECT_FALSE(g.validate().has_value());
  EXPECT_NE(g.findByName("y"), dfg::kNoNode);
}

TEST(Lower, UndefinedVariableRejected) {
  EXPECT_THROW(compileFlat("design e;\noutput y;\ny = nope + 1;\n"), LangError);
}

TEST(Lower, UnassignedOutputRejected) {
  EXPECT_THROW(compileFlat("design e;\ninput a;\noutput y;\nx = a + 1;\n"),
               LangError);
}

TEST(Lower, LoopBecomesChildNest) {
  const Compiled c = compile(R"(
design loopy;
input a, b;
output done;
pre = a + b;
loop l1 within 3 bound 8 { acc = pre + 1; acc = acc * 2; }
done = l1 + 0;
)");
  ASSERT_TRUE(c.hasLoops());
  ASSERT_EQ(c.nest.children.size(), 1u);
  const dfg::Dfg& body = c.nest.children[0].body;
  EXPECT_EQ(body.name(), "l1");
  EXPECT_EQ(c.nest.children[0].localTimeConstraint, 3);
  // bound 8 added increment + comparison bookkeeping.
  EXPECT_NE(body.findByName("l1_i_next"), dfg::kNoNode);
  EXPECT_NE(body.findByName("l1_i_continue"), dfg::kNoNode);
  // The parent sees a LoopSuper placeholder named l1 fed by `pre`.
  const dfg::NodeId super = c.nest.body.findByName("l1");
  ASSERT_NE(super, dfg::kNoNode);
  EXPECT_EQ(c.nest.body.node(super).kind, dfg::OpKind::LoopSuper);
  ASSERT_EQ(c.nest.body.node(super).inputs.size(), 1u);
  EXPECT_EQ(c.nest.body.node(super).inputs[0], c.nest.body.findByName("pre"));
}

TEST(Lower, LoopFoldsAndSchedules) {
  const Compiled c = compile(R"(
design loopy2;
input a;
output done;
loop l1 within 4 bound 4 { s = a * 2; s = s + 1; }
done = l1 + 1;
)");
  const dfg::Dfg folded =
      dfg::foldLoopNest(c.nest, [](const dfg::Dfg& body, int cs) {
        core::MfsOptions o;
        o.constraints.timeSteps = cs;
        const auto r = core::runMfs(body, o);
        EXPECT_TRUE(r.feasible) << r.error;
        return r.feasible ? r.steps : cs + 1;
      });
  core::MfsOptions o;
  o.constraints.timeSteps = 6;
  const auto r = core::runMfs(folded, o);
  ASSERT_TRUE(r.feasible) << r.error;
  EXPECT_TRUE(analysis::lintSchedule(r.schedule, o.constraints).empty());
}

TEST(Lower, CompileFlatRejectsLoops) {
  EXPECT_THROW(
      compileFlat("design l;\ninput a;\nloop x within 2 { t = a + 1; }\n"),
      LangError);
}

TEST(Lang, DiffeqInTheLanguageMatchesHandBuiltSchedule) {
  // The HAL benchmark written behaviorally; its MFS result must match the
  // hand-built DFG's (2 multipliers at T=4).
  const dfg::Dfg g = compileFlat(R"(
design diffeq_lang;
input x, y, u, dx, a;
output x1, y1, u1, cont;
m1 = 3 * x;
m2 = u * dx;
m3 = 3 * y;
m4 = m1 * m2;
m5 = dx * m3;
m6 = u * dx;
s1 = u - m4;
u1 = s1 - m5;
y1 = y + m6;
x1 = x + dx;
cont = x1 < a;
)");
  core::MfsOptions o;
  o.constraints.timeSteps = 4;
  const auto r = core::runMfs(g, o);
  ASSERT_TRUE(r.feasible) << r.error;
  EXPECT_EQ(r.fuCount.at(dfg::FuType::Multiplier), 2);
  const auto e = sim::evalDfg(g, {{"x", 2}, {"y", 5}, {"u", 9}, {"dx", 1}, {"a", 30}});
  ASSERT_TRUE(e.ok);
  // u1 = u - 3x*u*dx - dx*3y = 9 - 54 - 15 (mod 2^16)
  EXPECT_EQ(e.outputs.at("u1"), (9u - 54u - 15u) & 0xFFFF);
}

// Regression: the recursive descent had unbounded nesting recursion, so a
// mechanically generated expression with thousands of '(' overflowed the
// stack and crashed the process. The parser now counts nesting levels and
// raises a LangError with the offending line past kMaxNestingDepth.
//
// Depth accounting, pinned here so the boundary tests stay exact: parsing
// "y = (((...a...)));" enters statement (1), expression (2), unary (3), and
// each '(' recurses expression + unary (+2). With k parens the peak depth is
// 3 + 2k, so k = (kMaxNestingDepth - 3) / 2 is the deepest accepted input
// and k + 1 must diagnose.
std::string nestedParens(int k) {
  std::string src = "design d;\ninput a;\ny = ";
  src.append(static_cast<std::size_t>(k), '(');
  src += "a";
  src.append(static_cast<std::size_t>(k), ')');
  src += ";\n";
  return src;
}

TEST(ParserDepth, AcceptsNestingAtTheLimit) {
  constexpr int kAtLimit = (kMaxNestingDepth - 3) / 2;
  const Program p = parseProgram(nestedParens(kAtLimit));
  ASSERT_EQ(p.stmts.size(), 1u);
  EXPECT_EQ(p.stmts[0]->target, "y");
}

TEST(ParserDepth, DiagnosesNestingJustPastTheLimit) {
  constexpr int kPastLimit = (kMaxNestingDepth - 3) / 2 + 1;
  try {
    parseProgram(nestedParens(kPastLimit));
    FAIL() << "over-deep nesting must not parse";
  } catch (const LangError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nesting deeper than"), std::string::npos) << what;
    // The expression sits on line 3 of the generated source.
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
  }
}

TEST(ParserDepth, DeeplyNestedBlocksDiagnoseInsteadOfCrashing) {
  // 5000 nested if-blocks: far past any plausible real input, previously a
  // guaranteed stack overflow.
  std::string src = "design d;\ninput a;\n";
  for (int i = 0; i < 5000; ++i) src += "if (a) {\n";
  src += "y = a;\n";
  for (int i = 0; i < 5000; ++i) src += "}\n";
  EXPECT_THROW(parseProgram(src), LangError);
}

}  // namespace
}  // namespace mframe::lang
