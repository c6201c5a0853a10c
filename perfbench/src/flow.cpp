#include "flow.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <map>
#include <random>

#include "analysis/dfg_rules.h"
#include "analysis/validate/validate.h"
#include "dfg/parser.h"
#include "rtl/cost.h"
#include "rtl/verify.h"
#include "rtl/verilog.h"
#include "sim/dfg_eval.h"
#include "sim/rtl_sim.h"

namespace perfbench {

namespace mf = mframe;

namespace {

/// Runs each stage of one design pass: times it into the outcome and, on a
/// traced pass, records it as a span under the pass's root span.
class Stages {
 public:
  Stages(Outcome& out, Spans* spans, int pass, const std::string& design)
      : out_(out), root_(spans, "pass", -1, pass, design), spans_(spans), pass_(pass) {}

  template <class F>
  auto operator()(Stage s, F&& fn) {
    const Scope span(spans_, kStageNames[s], root_.index(), pass_);
    const Timer timer{out_.stageMs[s]};
    return fn();
  }

 private:
  struct Timer {
    double& ms;
    std::chrono::steady_clock::time_point start = std::chrono::steady_clock::now();
    ~Timer() {
      ms += std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start).count();
    }
  };

  Outcome& out_;
  Scope root_;
  Spans* spans_;
  int pass_;
};

/// Simulation vectors per design: eight for a paper design, two for a 10^4-op
/// design, whose simulation dominates the check.
int vectorsFor(const mf::dfg::Dfg& g) { return g.size() > 1000 ? 2 : 8; }

}  // namespace

Outcome synthesize(const Design& d, const mf::celllib::CellLibrary& lib,
                   Spans* spans, int pass) {
  Outcome o;
  Stages stage(o, spans, pass, d.reference.name());
  try {
    o.graph = stage(kParse, [&] { return mf::dfg::parse(d.text); });
    o.lint = stage(kLint, [&] { return mf::analysis::lintDfg(o.graph); });
    if (o.lint.hasErrors()) {
      o.failure = "lint: " + o.lint.renderText();
      return o;
    }
    std::string error;
    o.frames = stage(kTimeframes, [&] {
      return mf::sched::computeTimeFrames(o.graph, {}, &error);
    });
    if (!o.frames) {
      o.failure = "timeframes: " + error;
      return o;
    }
    mf::core::MfsaOptions mo;
    mo.constraints.timeSteps = o.frames->criticalSteps() + 1;
    o.mfsa = stage(kMfsa, [&] { return mf::core::runMfsa(o.graph, lib, mo); });
    if (!o.mfsa.feasible) {
      o.failure = "mfsa: " + o.mfsa.error;
      return o;
    }
    const mf::rtl::Datapath& dp = o.mfsa.datapath;
    o.verify = stage(kVerify, [&] {
      return mf::rtl::verifyDatapath(dp, mo.constraints, mo.style);
    });
    o.fsm = stage(kController, [&] { return mf::rtl::buildController(dp); });
    o.rom = stage(kMicrocode, [&] { return mf::rtl::buildMicrocode(dp, o.fsm); });
    o.audit = stage(kAudit, [&] {
      mf::analysis::audit::AuditOptions ao;
      ao.jobs = 1;
      return mf::analysis::audit::auditDesign(dp, o.fsm, o.rom, ao);
    });
    o.range = stage(kRange, [&] {
      mf::analysis::range::RangeOptions ro;
      ro.jobs = 1;
      return mf::analysis::range::analyzeDesignRanges(dp, o.fsm, o.rom, ro);
    });
    o.proof = stage(kProve, [&] {
      return mf::analysis::proveDatapath(dp, o.fsm, o.rom);
    });
    o.sta = stage(kSta, [&] { return mf::analysis::timing::analyzeTiming(dp); });
    o.verilog = stage(kVerilog, [&] { return mf::rtl::toVerilog(dp, o.fsm); });
  } catch (const std::exception& e) {
    o.failure = e.what();
  }
  return o;
}

Outcome tune(const Design& d, const mf::celllib::CellLibrary& lib, Spans* spans,
             int pass) {
  Outcome o;
  Stages stage(o, spans, pass, d.reference.name());
  try {
    o.graph = stage(kParse, [&] { return mf::dfg::parse(d.text); });
    mf::analysis::criticality::TuneOptions to;
    to.constraints.allowChaining = true;
    to.constraints.clockNs = 200.0;
    to.budget = 4;
    to.jobs = 1;
    o.tune = stage(kTune, [&] {
      return mf::analysis::criticality::tuneDesign(o.graph, lib, to);
    });
  } catch (const std::exception& e) {
    o.failure = e.what();
  }
  return o;
}

Qor& Qor::operator+=(const Qor& q) {
  areaUm2 += q.areaUm2;
  steps += q.steps;
  minClockNs = std::max(minClockNs, q.minClockNs);
  alus += q.alus;
  regs += q.regs;
  muxInputs += q.muxInputs;
  fsmStates += q.fsmStates;
  verilogBytes += q.verilogBytes;
  return *this;
}

namespace {

/// The shortest clock period the timing report's endpoints all meet: each
/// endpoint's arrival spread over the control steps it is allowed.
double minClockNs(const mf::analysis::timing::TimingReport& t) {
  double clock = 0;
  for (const auto& e : t.endpoints) {
    const double cycles =
        t.clockNs > 0 ? std::max(1.0, std::round(e.requiredNs / t.clockNs)) : 1.0;
    clock = std::max(clock, e.arrivalNs / cycles);
  }
  return clock;
}

/// The flow's own checkers must all be clean; returns the first complaint.
std::string checkerFindings(const Outcome& o) {
  if (o.tune) {
    if (!o.tune->converged) return "tune did not converge: " + o.tune->error;
    if (o.tune->worstSlackNs < 0) return "tune left negative slack";
    return {};
  }
  if (!o.verify.empty()) return "verify: " + o.verify.front();
  if (!o.audit.clean()) return "audit: " + o.audit.report.renderText();
  if (!o.range.clean()) return "range: " + o.range.report.renderText();
  if (!o.proof.empty()) return "prove: " + o.proof.renderText();
  return {};
}

/// Simulate the RTL on seeded vectors against the reference interpreter.
std::string simulationMismatch(const Design& d, const mf::rtl::Datapath& dp,
                               const mf::rtl::ControllerFsm& fsm,
                               std::uint32_t seed) {
  std::seed_seq seq{seed, static_cast<std::uint32_t>(d.text.size())};
  std::mt19937 rng(seq);
  for (int v = 0; v < vectorsFor(d.reference); ++v) {
    std::map<std::string, mf::sim::Word> inputs;
    for (const mf::dfg::Node& n : d.reference.nodes())
      if (n.kind == mf::dfg::OpKind::Input) inputs[n.name] = rng() & 0xffffu;
    const auto ref = mf::sim::evalDfg(d.reference, inputs);
    if (!ref.ok) return "reference evaluation failed: " + ref.error;
    const auto got = mf::sim::simulateRtl(dp, fsm, inputs);
    if (!got.ok) return "RTL simulation failed: " + got.error;
    if (got.outputs != ref.outputs) return "RTL outputs differ from the reference";
  }
  return {};
}

}  // namespace

Verdict check(const Design& d, const Outcome& o, std::uint32_t seed) {
  Verdict v;
  if (!o.failure.empty()) {
    v.failure = o.failure;
    return v;
  }
  v.failure = checkerFindings(o);
  if (!v.failure.empty()) return v;

  const mf::rtl::Datapath& dp = o.tune ? o.tune->datapath : o.mfsa.datapath;
  const mf::rtl::ControllerFsm fsm =
      o.tune ? mf::rtl::buildController(dp) : o.fsm;
  v.failure = simulationMismatch(d, dp, fsm, seed);

  const mf::rtl::CostBreakdown cost = mf::rtl::evaluateCost(dp);
  v.qor.areaUm2 = cost.total;
  v.qor.steps = o.tune ? o.tune->steps : o.mfsa.steps;
  v.qor.minClockNs = minClockNs(o.tune ? o.tune->timing : o.sta);
  v.qor.alus = cost.aluCount;
  v.qor.regs = cost.regCount;
  v.qor.muxInputs = cost.muxInputCount;
  v.qor.fsmStates = fsm.numSteps + 1;
  v.qor.verilogBytes = o.verilog.size();
  return v;
}

}  // namespace perfbench
