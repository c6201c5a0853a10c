// Differential regression for DFG-storage and scheduler-internals changes:
// the eight paper benchmarks must produce bit-identical MFS/MFSA schedules,
// datapath summaries and engine counters (mfsa.*, liapunov.*, mux.*) no
// matter how the graph is stored. The schedule and cost lines date from
// before the SoA/CSR storage refactor; any drift there means an algorithmic
// change leaked into the paper-scale path. The counters measure the search's
// work, so a change to how move frames are searched moves only them.
//
// Regenerate (only for an acknowledged algorithm change) with
// MFRAME_UPDATE_GOLDEN=1.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "celllib/ncr_like.h"
#include "core/mfs.h"
#include "core/mfsa.h"
#include "sched/timeframes.h"
#include "trace/trace.h"
#include "util/strings.h"
#include "workloads/benchmarks.h"

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

/// The engine counters the differential contract pins exactly.
std::string counterBlock() {
  std::string out;
  for (const auto& [name, value] : trace::counterSnapshot()) {
    const bool pinned = name.rfind("mfsa.", 0) == 0 ||
                        name.rfind("liapunov.", 0) == 0 ||
                        name.rfind("mux.", 0) == 0;
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

std::string goldenPath(const std::string& name) {
  return std::string(MFRAME_TESTS_DIR) + "/golden/sched_" + name + ".txt";
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
  const bool update = std::getenv("MFRAME_UPDATE_GOLDEN") != nullptr;
  trace::enableCounters(true);
  for (const dfg::Dfg& g : suite()) {
    const std::string text = renderBenchmark(g);
    const std::string path = goldenPath(g.name());
    if (update) {
      std::ofstream out(path);
      ASSERT_TRUE(out.good()) << path;
      out << text;
      continue;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing golden " << path
                           << " (regenerate with MFRAME_UPDATE_GOLDEN=1)";
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(text, ss.str()) << g.name();
  }
  trace::enableCounters(false);
}

}  // namespace
}  // namespace mframe
