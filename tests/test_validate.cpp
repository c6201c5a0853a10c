// Coverage for the translation validator: value-numbering algebra, the
// accept direction (every benchmark x every scheduler proves clean), the
// reject direction (each seeded .bind defect refutes with its documented
// EQV rule), the provenance JSON contract, and the differential check that
// validator-accepted designs simulate to the behavioral golden model.
#include "analysis/validate/validate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "analysis/lint.h"
#include "analysis/validate/bind_io.h"
#include "analysis/validate/value_numbering.h"
#include "baseline/asap_sched.h"
#include "baseline/fds.h"
#include "baseline/list_sched.h"
#include "celllib/ncr_like.h"
#include "core/mfs.h"
#include "core/mfsa.h"
#include "helpers.h"
#include "rtl/controller.h"
#include "rtl/datapath.h"
#include "rtl/microcode.h"
#include "sim/dfg_eval.h"
#include "sim/rtl_sim.h"
#include "workloads/benchmarks.h"

namespace mframe::analysis {
namespace {

bool fires(const LintReport& r, std::string_view rule) {
  return !r.byRule(rule).empty();
}

/// The clean hand binding of workloads::chained() used by every .bind test:
/// the t-chain serialised on ALU0, the u-chain on ALU1, six steps.
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
  const auto b = parseBindDesign(g, tinyLib(),
                                 std::string(kChainedBinding) + std::string(extra),
                                 &err);
  EXPECT_TRUE(b.has_value()) << err;
  return *b;
}

// ---------------------------------------------------------------------------
// Value numbering
// ---------------------------------------------------------------------------

TEST(ValueNumbering, InputsAndConstsIntern) {
  ValueNumbering vn;
  EXPECT_EQ(vn.ofInput(3), vn.ofInput(3));
  EXPECT_NE(vn.ofInput(3), vn.ofInput(4));
  EXPECT_EQ(vn.ofConst(42), vn.ofConst(42));
  EXPECT_NE(vn.ofConst(42), vn.ofConst(43));
  EXPECT_NE(vn.ofInput(3), vn.ofConst(3));
}

TEST(ValueNumbering, CommutativeOperandsNormalize) {
  ValueNumbering vn;
  const Vn a = vn.ofInput(0);
  const Vn b = vn.ofInput(1);
  EXPECT_EQ(vn.ofOp(dfg::OpKind::Add, a, b), vn.ofOp(dfg::OpKind::Add, b, a));
  EXPECT_EQ(vn.ofOp(dfg::OpKind::Mul, a, b), vn.ofOp(dfg::OpKind::Mul, b, a));
  EXPECT_NE(vn.ofOp(dfg::OpKind::Sub, a, b), vn.ofOp(dfg::OpKind::Sub, b, a));
  EXPECT_NE(vn.ofOp(dfg::OpKind::Add, a, b), vn.ofOp(dfg::OpKind::Sub, a, b));
}

TEST(ValueNumbering, FreshAndOpaqueAreUnique) {
  ValueNumbering vn;
  EXPECT_NE(vn.fresh(), vn.fresh());
  EXPECT_EQ(vn.ofOpaque(7), vn.ofOpaque(7));
  EXPECT_NE(vn.ofOpaque(7), vn.ofOpaque(8));
  EXPECT_NE(vn.ofOpaque(7), vn.fresh());
}

TEST(ValueNumbering, NumberGraphMirrorsStructure) {
  const dfg::Dfg g = test::smallDiamond();
  ValueNumbering vn;
  const std::vector<Vn> ideal = vn.numberGraph(g);
  ASSERT_EQ(ideal.size(), g.size());
  const auto s = g.findByName("s");
  const auto y = g.findByName("y");
  // Recomputing y = s * t from the node values reproduces the same number.
  const auto& ny = g.node(y);
  EXPECT_EQ(ideal[y],
            vn.ofOp(ny.kind, ideal[ny.inputs[0]], ideal[ny.inputs[1]]));
  // toString renders something readable for both ends of the spectrum.
  EXPECT_EQ(vn.toString(ideal[g.findByName("a")], g), "a");
  EXPECT_NE(vn.toString(ideal[s], g).find("+"), std::string::npos);
  EXPECT_NE(vn.toString(vn.fresh(), g).find("junk#"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Accept direction: every benchmark x every synthesis path proves clean
// ---------------------------------------------------------------------------

struct Bench {
  const char* name;
  dfg::Dfg graph;
};

std::vector<Bench> proveSuite() {
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

/// Schedule -> bindByColumns -> buildDatapath -> prove; empty report = proof.
void expectProved(const dfg::Dfg& g, const sched::Schedule& s,
                  const std::string& what) {
  static const celllib::CellLibrary lib = celllib::ncrLike();
  const rtl::Datapath d =
      rtl::buildDatapath(g, lib, s, rtl::bindByColumns(g, lib, s, {}));
  const LintReport r = proveDatapath(d);
  EXPECT_TRUE(r.empty()) << what << ":\n" << r.renderText();
}

TEST(ProveAccept, MfsaOnEveryBenchmark) {
  static const celllib::CellLibrary lib = celllib::ncrLike();
  for (const Bench& b : proveSuite()) {
    const auto asap = baseline::runAsap(b.graph, {});
    ASSERT_TRUE(asap.feasible) << b.name;
    core::MfsaOptions o;
    o.constraints.timeSteps = asap.steps;
    const auto r = core::runMfsa(b.graph, lib, o);
    ASSERT_TRUE(r.feasible) << b.name << ": " << r.error;
    const LintReport proof = proveDatapath(r.datapath);
    EXPECT_TRUE(proof.empty()) << b.name << " (mfsa):\n" << proof.renderText();
  }
}

TEST(ProveAccept, MfsOnEveryBenchmark) {
  for (const Bench& b : proveSuite()) {
    const auto asap = baseline::runAsap(b.graph, {});
    ASSERT_TRUE(asap.feasible) << b.name;
    core::MfsOptions o;
    o.constraints.timeSteps = asap.steps;
    const auto r = core::runMfs(b.graph, o);
    ASSERT_TRUE(r.feasible) << b.name << ": " << r.error;
    expectProved(b.graph, r.schedule, std::string(b.name) + " (mfs)");
  }
}

TEST(ProveAccept, AsapAndListOnEveryBenchmark) {
  for (const Bench& b : proveSuite()) {
    const auto asap = baseline::runAsap(b.graph, {});
    ASSERT_TRUE(asap.feasible) << b.name;
    expectProved(b.graph, asap.schedule, std::string(b.name) + " (asap)");
    const auto list = baseline::runListScheduling(b.graph, {});
    ASSERT_TRUE(list.feasible) << b.name;
    expectProved(b.graph, list.schedule, std::string(b.name) + " (list)");
  }
}

TEST(ProveAccept, ForceDirectedOnEveryBenchmark) {
  for (const Bench& b : proveSuite()) {
    const auto asap = baseline::runAsap(b.graph, {});
    ASSERT_TRUE(asap.feasible) << b.name;
    sched::Constraints c;
    c.timeSteps = asap.steps;
    const auto r = baseline::runForceDirected(b.graph, c);
    ASSERT_TRUE(r.feasible) << b.name << ": " << r.error;
    expectProved(b.graph, r.schedule, std::string(b.name) + " (fds)");
  }
}

// ---------------------------------------------------------------------------
// Reject direction: seeded .bind defects refute with the documented rule
// ---------------------------------------------------------------------------

TEST(ProveReject, CleanBindingProves) {
  const BoundDesign b = bindChained();
  const LintReport r = proveDatapath(b.datapath, b.fsm, b.rom);
  EXPECT_TRUE(r.empty()) << r.renderText();
}

TEST(ProveReject, SharedRegisterClobberFiresEqv002) {
  // t1 and u1 both live over (1,2] yet pinned into the same register.
  const BoundDesign b = bindChained("reg t1 0\nreg u1 0\n");
  const LintReport r = proveDatapath(b.datapath, b.fsm, b.rom);
  ASSERT_TRUE(fires(r, kEqvRegisterClobber)) << r.renderText();
  const std::vector<Diagnostic> clobbers = r.byRule(kEqvRegisterClobber);
  EXPECT_EQ(clobbers.front().severity, Severity::Error);
  EXPECT_FALSE(clobbers.front().provenance.empty());
}

TEST(ProveReject, SwappedMuxRouteFiresEqv004) {
  const BoundDesign b = bindChained("route t3 left 0\n");
  const LintReport r = proveDatapath(b.datapath, b.fsm, b.rom);
  ASSERT_TRUE(fires(r, kEqvMuxRoute)) << r.renderText();
  EXPECT_FALSE(r.byRule(kEqvMuxRoute).front().provenance.empty());
}

TEST(ProveReject, OffByOneLatchFiresEqv005) {
  const BoundDesign b = bindChained("load t2 step=3\n");
  const LintReport r = proveDatapath(b.datapath, b.fsm, b.rom);
  ASSERT_TRUE(fires(r, kEqvStepDisagreement)) << r.renderText();
  // The late latch also starves t3, which reads the register in step 3.
  EXPECT_TRUE(fires(r, kEqvOperandMismatch)) << r.renderText();
}

// ---------------------------------------------------------------------------
// Reject direction: ROM words that disagree with their controller. MFSA's
// diffeq at 4 steps; each case edits the ROM alone and leaves the FSM as
// built, so only the ROM cross-checks can see the defect.
// ---------------------------------------------------------------------------

struct RomDesign {
  rtl::Datapath datapath;
  rtl::ControllerFsm fsm;
  rtl::MicrocodeRom rom;

  /// Row `step`'s value of the `kind` field of `unit` (looked up by its
  /// role, never by its position in the word).
  int& cell(int step, rtl::MicrocodeField::Kind kind, int unit) {
    const int f = rom.fieldOf(kind, unit);
    EXPECT_GE(f, 0) << rtl::MicrocodeField{kind, unit}.name();
    return rom.rows.at(static_cast<std::size_t>(step - 1))
        .at(static_cast<std::size_t>(f));
  }
};

using Kind = rtl::MicrocodeField::Kind;

RomDesign diffeqRom() {
  static const celllib::CellLibrary lib = celllib::ncrLike();
  core::MfsaOptions o;
  o.constraints.timeSteps = 4;
  const core::MfsaResult res = core::runMfsa(workloads::diffeq(), lib, o);
  EXPECT_TRUE(res.feasible) << res.error;
  RomDesign b{res.datapath, rtl::buildController(res.datapath), {}};
  b.rom = rtl::buildMicrocode(b.datapath, b.fsm);
  return b;
}

/// Prove `b`; one `rule` finding must carry `message` and name `field` in
/// its location.
void expectRomFinding(const RomDesign& b, std::string_view rule,
                      std::string_view message, std::string_view field) {
  const LintReport r = proveDatapath(b.datapath, b.fsm, b.rom);
  const std::vector<Diagnostic> found = r.byRule(rule);
  const auto it = std::find_if(found.begin(), found.end(),
                               [&](const Diagnostic& d) {
                                 return d.message.find(message) !=
                                        std::string::npos;
                               });
  ASSERT_NE(it, found.end()) << r.renderText();
  EXPECT_EQ(it->loc.detail, field);
}

TEST(ProveReject, UnmutatedRomProves) {
  const RomDesign b = diffeqRom();
  const LintReport r = proveDatapath(b.datapath, b.fsm, b.rom);
  EXPECT_TRUE(r.empty()) << r.renderText();
}

TEST(ProveReject, RomOpcodeDontCareFiresEqv005) {
  RomDesign b = diffeqRom();
  b.cell(1, Kind::Opcode, 1) = -1;
  expectRomFinding(b, kEqvStepDisagreement,
                   "step 1 issues 'm2' but field alu1.op holds a don't-care",
                   "alu1.op");
}

TEST(ProveReject, RomOpcodeMismatchFiresEqv005) {
  RomDesign b = diffeqRom();
  int& op = b.cell(1, Kind::Opcode, 1);
  op = 1 - op;  // ALU1 runs sub (0) and mul (1)
  expectRomFinding(b, kEqvStepDisagreement,
                   "ROM opcode 0 in step 1 selects 'sub' but the schedule "
                   "runs 'mul'",
                   "alu1.op");
}

TEST(ProveReject, RomOpcodePastTableFiresEqv005) {
  // A 1-bit field could not hold 5, but prove reads whatever the ROM says.
  RomDesign b = diffeqRom();
  b.cell(1, Kind::Opcode, 1) = 5;
  expectRomFinding(b, kEqvStepDisagreement,
                   "ROM opcode 5 in step 1 selects none of ALU1's 2 "
                   "operations but the schedule runs 'mul'",
                   "alu1.op");
}

TEST(ProveReject, RomSpuriousLoadFiresEqv005) {
  // R0 latches in every step of diffeq; R1 first latches in step 2.
  RomDesign b = diffeqRom();
  b.cell(1, Kind::RegLoad, 1) = 1;
  expectRomFinding(b, kEqvStepDisagreement,
                   "ROM asserts R1.load in step 1 but no value is latched "
                   "there",
                   "R1.load");
}

TEST(ProveReject, RomMissingLoadFiresEqv005) {
  RomDesign b = diffeqRom();
  b.cell(2, Kind::RegLoad, 1) = -1;
  expectRomFinding(b, kEqvStepDisagreement,
                   "ROM misses R1.load in step 2 where the controller "
                   "latches",
                   "R1.load");
}

TEST(ProveReject, RomSelectMismatchFiresEqv004) {
  RomDesign b = diffeqRom();
  b.cell(1, Kind::SelL, 0) = 1;
  expectRomFinding(b, kEqvMuxRoute,
                   "left port of ALU0 issues select 1 (R0) but the binding "
                   "routes 'three' through select 0",
                   "alu0.selL");
}

TEST(ProveReject, RomSelectOutsideMuxFiresEqv004) {
  RomDesign b = diffeqRom();
  b.cell(1, Kind::SelL, 0) = 7;
  expectRomFinding(b, kEqvMuxRoute,
                   "left port select 7 of ALU0 is outside its 2-way mux",
                   "alu0.selL");
}

TEST(ProveReject, RomShapeFiresEqv005) {
  RomDesign b = diffeqRom();
  b.rom.rows.pop_back();
  expectRomFinding(b, kEqvStepDisagreement,
                   "microcode ROM shape (3 rows) disagrees with the 4-state "
                   "controller",
                   "");
}

TEST(ProveReject, MalformedBindTextIsReported) {
  const dfg::Dfg g = workloads::chained();
  std::string err;
  EXPECT_FALSE(parseBindDesign(g, tinyLib(), "bind chained steps=6\nalu 5 nosuch\n",
                               &err)
                   .has_value());
  EXPECT_NE(err.find("line"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Provenance JSON contract
// ---------------------------------------------------------------------------

TEST(ProveJson, ProvenanceRoundTrips) {
  const BoundDesign b = bindChained("reg t1 0\nreg u1 0\n");
  const LintReport r = proveDatapath(b.datapath, b.fsm, b.rom);
  ASSERT_FALSE(r.empty());
  const std::string json = r.renderJson("chained");
  EXPECT_NE(json.find("\"provenance\""), std::string::npos);
  std::string err;
  const auto parsed = parseDiagnosticsJson(json, &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(*parsed, r.diagnostics());
}

// ---------------------------------------------------------------------------
// Differential: validator-accepted designs simulate to the golden model,
// a validator-refuted design diverges
// ---------------------------------------------------------------------------

std::map<std::string, sim::Word> randomInputs(const dfg::Dfg& g,
                                              std::mt19937& rng) {
  std::map<std::string, sim::Word> in;
  std::uniform_int_distribution<int> dist(0, 255);
  for (const dfg::Node& n : g.nodes())
    if (n.kind == dfg::OpKind::Input) in[n.name] = dist(rng);
  return in;
}

TEST(ProveDifferential, AcceptedDesignsMatchGoldenModel) {
  static const celllib::CellLibrary lib = celllib::ncrLike();
  std::mt19937 rng(1234);  // fixed seed: reproducible vectors
  for (const Bench& b : proveSuite()) {
    const auto asap = baseline::runAsap(b.graph, {});
    ASSERT_TRUE(asap.feasible) << b.name;
    core::MfsaOptions o;
    o.constraints.timeSteps = asap.steps;
    const auto r = core::runMfsa(b.graph, lib, o);
    ASSERT_TRUE(r.feasible) << b.name;
    ASSERT_TRUE(proveDatapath(r.datapath).empty()) << b.name;

    const rtl::ControllerFsm fsm = rtl::buildController(r.datapath);
    for (int trial = 0; trial < 3; ++trial) {
      const auto in = randomInputs(b.graph, rng);
      const auto golden = sim::evalDfg(b.graph, in);
      ASSERT_TRUE(golden.ok) << golden.error;
      const auto rtl = sim::simulateRtl(r.datapath, fsm, in);
      ASSERT_TRUE(rtl.ok) << b.name << ": " << rtl.error;
      EXPECT_EQ(rtl.outputs, golden.outputs) << b.name;
    }
  }
}

TEST(ProveDifferential, RefutedDesignDiverges) {
  // The shared-register clobber the validator flags as EQV002 is a real
  // hardware bug: u1's latch overwrites t1 before t2 reads it, so the
  // simulated t-chain (output y) computes with the wrong operand.
  const dfg::Dfg g = workloads::chained();
  const BoundDesign broken = bindChained("reg t1 0\nreg u1 0\n");
  ASSERT_TRUE(fires(proveDatapath(broken.datapath, broken.fsm, broken.rom),
                    kEqvRegisterClobber));

  std::mt19937 rng(99);
  bool diverged = false;
  for (int trial = 0; trial < 8 && !diverged; ++trial) {
    const auto in = randomInputs(g, rng);
    const auto golden = sim::evalDfg(g, in);
    ASSERT_TRUE(golden.ok) << golden.error;
    const auto rtl = sim::simulateRtl(broken.datapath, broken.fsm, in);
    diverged = !rtl.ok || rtl.outputs != golden.outputs;
  }
  EXPECT_TRUE(diverged)
      << "clobbered register never changed an output across 8 random vectors";
}

}  // namespace
}  // namespace mframe::analysis
