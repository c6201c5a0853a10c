// Differential regression for DFG-storage and scheduler-internals changes:
// the eight paper benchmarks must produce bit-identical MFS/MFSA schedules,
// datapath summaries and engine counters (mfsa.*, liapunov.*, mux.*) no
// matter how the graph is stored. The schedule and cost lines date from
// before the SoA/CSR storage refactor; any drift there means an algorithmic
// change leaked into the paper-scale path. The counters measure the search's
// work, so a change to how move frames are searched moves only them.
//
// A second golden pins MFSA above kMfsaGreedyThreshold, where it prices
// mux deltas by greedy append and widens column budgets in place: seeded
// 3,000-op random designs of each topology, plain and chained, recorded as
// an FNV-1a digest of every op's step and ALU plus the run's summary lines.
//
// A third golden pins everything downstream of MFSA on the paper designs and
// on those 3,000-op designs: digests of the Verilog text, the controller,
// the port wiring and the binding, and each checker's result line, so a
// change to how the bound datapath is stored or read cannot move any of it.
//
// Regenerate (only for an acknowledged algorithm change) with
// MFRAME_UPDATE_GOLDEN=1.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "analysis/audit/audit.h"
#include "analysis/range/range.h"
#include "analysis/timing/sta.h"
#include "analysis/validate/validate.h"
#include "celllib/ncr_like.h"
#include "core/mfs.h"
#include "core/mfsa.h"
#include "helpers.h"
#include "rtl/bus.h"
#include "rtl/controller.h"
#include "rtl/microcode.h"
#include "rtl/rtl_dot.h"
#include "rtl/testability.h"
#include "rtl/verify.h"
#include "rtl/verilog.h"
#include "sched/timeframes.h"
#include "trace/trace.h"
#include "util/strings.h"
#include "workloads/benchmarks.h"
#include "workloads/random_dfg.h"

namespace mframe {
namespace {

std::vector<dfg::Dfg> suite() {
  std::vector<dfg::Dfg> out;
  out.push_back(workloads::tseng());
  out.push_back(workloads::chained());
  out.push_back(workloads::diffeq());
  out.push_back(workloads::fir8());
  out.push_back(workloads::arLattice());
  out.push_back(workloads::ewfLike());
  out.push_back(workloads::fdctLike());
  out.push_back(workloads::iirBiquads());
  return out;
}

/// The engine counters whose names start with one of `prefixes`, except
/// mfsa.occupancyProbes: it counts the steps MFSA's per-ALU walk examines
/// on its way to the placements pinned here, and is itself pinned by
/// Scale.MfsaWalkGrowsLinearlyInN and BENCH_runtime.json's metrics runs.
std::string counterBlock(std::initializer_list<const char*> prefixes = {
                             "mfsa.", "liapunov.", "mux."}) {
  const std::string_view walkProbes =
      trace::counterName(trace::Counter::MfsaOccupancyProbes);
  std::string out;
  for (const auto& [name, value] : trace::counterSnapshot()) {
    const bool pinned =
        name != walkProbes &&
        std::any_of(prefixes.begin(), prefixes.end(),
                    [&](const char* p) { return name.rfind(p, 0) == 0; });
    if (pinned)
      out += util::format("  %s = %llu\n", std::string(name).c_str(),
                          static_cast<unsigned long long>(value));
  }
  return out;
}

std::string fuCountBlock(const std::map<dfg::FuType, int>& fu) {
  std::string out;
  for (const auto& [t, n] : fu)
    out += util::format("  %s x%d\n", std::string(dfg::fuTypeName(t)).c_str(), n);
  return out;
}

std::string renderBenchmark(const dfg::Dfg& g) {
  const celllib::CellLibrary lib = celllib::ncrLike();
  std::string tfError;
  sched::Constraints probe;
  const auto tf = sched::computeTimeFrames(g, probe, &tfError);
  EXPECT_TRUE(tf.has_value()) << g.name() << ": " << tfError;
  if (!tf) return {};
  const int cs = tf->criticalSteps() + 1;  // one step of real mobility

  std::string out = util::format("design %s cs %d\n", g.name().c_str(), cs);

  {  // MFS, time-constrained.
    core::MfsOptions o;
    o.constraints.timeSteps = cs;
    o.mode = core::MfsLiapunov::Mode::TimeConstrained;
    trace::resetCounters();
    const auto r = runMfs(g, o);
    EXPECT_TRUE(r.feasible) << g.name() << ": " << r.error;
    out += "== mfs time-constrained ==\n";
    out += r.schedule.toString();
    out += util::format("steps %d restarts %d\n", r.steps, r.restarts);
    out += fuCountBlock(r.fuCount);
    out += counterBlock();
  }

  {  // MFS, resource-constrained (latency minimization, derived bounds).
    core::MfsOptions o;
    o.mode = core::MfsLiapunov::Mode::ResourceConstrained;
    trace::resetCounters();
    const auto r = runMfs(g, o);
    EXPECT_TRUE(r.feasible) << g.name() << ": " << r.error;
    out += "== mfs resource-constrained ==\n";
    out += r.schedule.toString();
    out += util::format("steps %d restarts %d\n", r.steps, r.restarts);
    out += fuCountBlock(r.fuCount);
    out += counterBlock();
  }

  {  // MFSA, default weights, mux interconnect.
    core::MfsaOptions o;
    o.constraints.timeSteps = cs;
    trace::resetCounters();
    const auto r = runMfsa(g, lib, o);
    EXPECT_TRUE(r.feasible) << g.name() << ": " << r.error;
    out += "== mfsa ==\n";
    out += r.datapath.schedule.toString();
    out += util::format("steps %d restarts %d\n", r.steps, r.restarts);
    out += "alus: " + r.datapath.aluSummary() + "\n";
    out += util::format("regs %zu\n", r.datapath.regs.count());
    out += util::format("cost alu %.3f reg %.3f mux %.3f total %.3f\n",
                        r.cost.aluArea, r.cost.regArea, r.cost.muxArea,
                        r.cost.total);
    out += counterBlock();
  }
  return out;
}

/// One MFSA run on a greedy-sized design at critical path + 1: the summary
/// lines, the mfsa.* counters and a digest of every op's `name step ALU`.
std::string renderGreedyRun(const dfg::Dfg& g, const sched::Constraints& base,
                            const std::string& label) {
  const celllib::CellLibrary lib = celllib::ncrLike();
  core::MfsaOptions o;
  o.constraints = base;
  std::string tfError;
  const auto tf = sched::computeTimeFrames(g, o.constraints, &tfError);
  EXPECT_TRUE(tf.has_value()) << label << ": " << tfError;
  if (!tf) return {};
  o.constraints.timeSteps = tf->criticalSteps() + 1;
  trace::resetCounters();
  const auto r = runMfsa(g, lib, o);
  EXPECT_TRUE(r.feasible) << label << ": " << r.error;
  const sched::Schedule& s = r.datapath.schedule;
  std::string listing;
  for (dfg::NodeId id : g.operations())
    listing += util::format("%s %d %d\n", g.node(id).name.c_str(),
                            s.stepOf(id), s.columnOf(id));
  std::string out = "== " + label + " ==\n";
  out += util::format("steps %d restarts %d\n", r.steps, r.restarts);
  out += "alus: " + r.datapath.aluSummary() + "\n";
  out += util::format("cost alu %.3f reg %.3f mux %.3f total %.3f\n",
                      r.cost.aluArea, r.cost.regArea, r.cost.muxArea,
                      r.cost.total);
  out += counterBlock({"mfsa."});
  out += util::format("placement fnv1a %016llx\n",
                      static_cast<unsigned long long>(test::fnv1a(listing)));
  return out;
}

/// The seeded 3,000-op designs above kMfsaGreedyThreshold, one per
/// topology, each with its `random:` spec as its name.
std::vector<std::pair<std::string, dfg::Dfg>> greedyDesigns() {
  std::vector<std::pair<std::string, dfg::Dfg>> out;
  const std::pair<workloads::DfgTopology, const char*> topologies[] = {
      {workloads::DfgTopology::Conv, "conv"},
      {workloads::DfgTopology::Lstm, "lstm"},
      {workloads::DfgTopology::Transformer, "transformer"},
      {workloads::DfgTopology::Layered, "layered"}};
  std::uint32_t seed = 0;
  for (const auto& [topology, name] : topologies) {
    workloads::RandomDfgOptions ro;
    ro.topology = topology;
    ro.seed = ++seed;
    ro.numOps = 3000;
    ro.layerWidth = 64;
    ro.numInputs = 8;
    dfg::Dfg g = workloads::randomDfg(ro);
    EXPECT_GE(g.size(), core::kMfsaGreedyThreshold) << name;
    out.emplace_back(
        util::format("random:%s,ops=3000,width=64,inputs=8,seed=%u", name,
                     seed),
        std::move(g));
  }
  return out;
}

/// Chaining at a 200 ns clock, the second setting of every greedy run.
sched::Constraints chainedAt200() {
  sched::Constraints c;
  c.allowChaining = true;
  c.clockNs = 200.0;
  return c;
}

std::string renderGreedySuite() {
  std::string out;
  for (const auto& [design, g] : greedyDesigns()) {
    out += renderGreedyRun(g, {}, design);
    out += renderGreedyRun(g, chainedAt200(), design + " chaining clock 200");
  }
  return out;
}

std::string digestLine(const char* what, const std::string& text) {
  return util::format("%s fnv1a %016llx\n", what,
                      static_cast<unsigned long long>(test::fnv1a(text)));
}

/// One MFSA run at critical path + 1 and everything built and checked from
/// its datapath. The binding listing is read from the ALU op lists and the
/// register allocation, and the selects through PortWiring::sourceFor, so
/// the record does not depend on how the datapath indexes them.
std::string renderFlowRun(const dfg::Dfg& g, const sched::Constraints& base,
                          const std::string& label) {
  static const celllib::CellLibrary lib = celllib::ncrLike();
  core::MfsaOptions o;
  o.constraints = base;
  const auto tf = sched::computeTimeFrames(g, o.constraints);
  EXPECT_TRUE(tf.has_value()) << label;
  if (!tf) return {};
  o.constraints.timeSteps = tf->criticalSteps() + 1;
  const auto r = runMfsa(g, lib, o);
  EXPECT_TRUE(r.feasible) << label << ": " << r.error;
  if (!r.feasible) return {};
  const rtl::Datapath& d = r.datapath;
  const rtl::ControllerFsm fsm = rtl::buildController(d);
  const rtl::MicrocodeRom rom = rtl::buildMicrocode(d, fsm);

  std::vector<int> aluOf(g.size(), -1), regOf(g.size(), -1);
  for (const rtl::AluInstance& a : d.alus)
    for (dfg::NodeId op : a.ops) aluOf[op] = a.index;
  for (std::size_t reg = 0; reg < d.regs.registers.size(); ++reg)
    for (std::size_t i : d.regs.registers[reg])
      regOf[d.lifetimes[i].producer] = static_cast<int>(reg);
  std::string binding;
  for (const dfg::Node& n : g.nodes())
    binding += util::format("%s %d %d\n", n.name.c_str(), aluOf[n.id],
                            regOf[n.id]);

  std::string controller;
  for (const rtl::MicroOp& m : fsm.microOps)
    controller += util::format("issue %d %d %u %d %d\n", m.step, m.alu, m.op,
                               m.leftSelect, m.rightSelect);
  for (const rtl::RegLoad& l : fsm.regLoads)
    controller += util::format("load %d %d %u %d\n", l.step, l.reg, l.signal,
                               l.fromAlu);

  std::string ports;
  for (const rtl::AluInstance& a : d.alus) {
    const auto ai = static_cast<std::size_t>(a.index);
    for (const alloc::PortWiring* w : {&d.leftPort[ai], &d.rightPort[ai]}) {
      ports += "sources";
      for (const alloc::Source& src : w->sources) ports += " " + src.toString(g);
      ports += "\n";
    }
    for (dfg::NodeId op : a.ops) {
      const alloc::MuxArrangement::Ports p =
          d.arrangement[ai].portSignals(g.node(op));
      const auto select = [&](const alloc::PortWiring& w, dfg::NodeId signal) {
        const alloc::Source* src =
            signal == dfg::kNoNode ? nullptr : w.sourceFor(op, signal);
        return src ? static_cast<long>(src - w.sources.data()) : -1L;
      };
      ports += util::format("%s %ld %ld\n", g.node(op).name.c_str(),
                            select(d.leftPort[ai], p.left),
                            select(d.rightPort[ai], p.right));
    }
  }

  std::string out = "== " + label + " ==\n";
  out += util::format("steps %d alus %zu regs %zu\n", r.steps, d.alus.size(),
                      d.regs.count());
  out += digestLine("binding", binding);
  out += digestLine("controller", controller);
  out += digestLine("ports", ports);
  out += digestLine("verilog", rtl::toVerilog(d, fsm));
  out += digestLine("rtl dot", rtl::toDot(d));
  out += "testability: " + rtl::analyzeTestability(d).toString() + "\n";
  out += "buses: " + rtl::planBuses(d, fsm).toString() + "\n";

  const std::vector<std::string> bad =
      rtl::verifyDatapath(d, o.constraints, rtl::DesignStyle::Unrestricted);
  out += util::format("verify: %zu finding(s), %s\n", bad.size(),
                      bad.empty() ? "clean" : bad.front().c_str());
  const analysis::LintReport proof = analysis::proveDatapath(d, fsm, rom);
  out += proof.empty() ? std::string("prove: PROVED\n")
                       : util::format("prove: REFUTED, %zu finding(s)\n",
                                      proof.size());
  out += digestLine("prove report", proof.renderText());
  const analysis::audit::AuditResult audit =
      analysis::audit::auditDesign(d, fsm, rom);
  out += analysis::audit::renderAuditSummary(audit) + "\n";
  out += digestLine("audit report", audit.report.renderText());
  const analysis::range::RangeResult ranges =
      analysis::range::analyzeDesignRanges(d, fsm, rom);
  out += analysis::range::renderRangeSummary(ranges) + "\n";
  out += digestLine("range report", ranges.report.renderText());

  analysis::timing::TimingOptions to;
  to.clockNs = o.constraints.clockNs;
  to.clockSet = o.constraints.allowChaining;
  const analysis::timing::TimingReport sta =
      analysis::timing::analyzeTiming(d, to);
  out += util::format("sta: worst slack %.3f ns, %zu endpoint(s), %zu "
                      "finding(s)\n",
                      sta.worstSlackNs, sta.endpoints.size(),
                      sta.diagnostics.size());
  out += digestLine("sta critical path", util::join(sta.criticalPath, "\n"));
  out += digestLine("sta report",
                    sta.toString(g) + sta.diagnostics.renderText());
  return out;
}

std::string renderFlowSuite() {
  std::string out;
  for (const dfg::Dfg& g : suite()) out += renderFlowRun(g, {}, g.name());
  for (const auto& [design, g] : greedyDesigns()) {
    out += renderFlowRun(g, {}, design);
    out += renderFlowRun(g, chainedAt200(), design + " chaining clock 200");
  }
  return out;
}

std::string goldenPath(const std::string& name) {
  return std::string(MFRAME_TESTS_DIR) + "/golden/sched_" + name + ".txt";
}

/// Compare `text` with the golden file at `path`, or rewrite the file under
/// MFRAME_UPDATE_GOLDEN=1.
void checkGolden(const std::string& path, const std::string& text,
                 const std::string& what) {
  if (std::getenv("MFRAME_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << path;
    out << text;
    return;
  }
  const std::string golden = test::readFile(path);
  ASSERT_FALSE(golden.empty()) << "missing golden " << path
                               << " (regenerate with MFRAME_UPDATE_GOLDEN=1)";
  EXPECT_EQ(text, golden) << what;
}

TEST(DifferentialGolden, RenderIsDeterministic) {
  const dfg::Dfg g = workloads::diffeq();
  trace::enableCounters(true);
  const std::string a = renderBenchmark(g);
  const std::string b = renderBenchmark(g);
  trace::enableCounters(false);
  EXPECT_EQ(a, b);
}

TEST(DifferentialGolden, BenchmarksMatchCommittedSchedules) {
  trace::enableCounters(true);
  for (const dfg::Dfg& g : suite())
    checkGolden(goldenPath(g.name()), renderBenchmark(g), g.name());
  trace::enableCounters(false);
}

TEST(DifferentialGolden, GreedyMfsaMatchesCommittedDigests) {
  trace::enableCounters(true);
  checkGolden(std::string(MFRAME_TESTS_DIR) + "/golden/mfsa_greedy.txt",
              renderGreedySuite(), "greedy MFSA");
  trace::enableCounters(false);
}

TEST(DifferentialGolden, FlowMatchesCommittedDigests) {
  checkGolden(std::string(MFRAME_TESTS_DIR) + "/golden/flow_greedy.txt",
              renderFlowSuite(), "flow after MFSA");
}

}  // namespace
}  // namespace mframe
