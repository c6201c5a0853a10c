#include "rtl/bus.h"

#include <algorithm>
#include <map>
#include <set>

#include "util/strings.h"

namespace mframe::rtl {

namespace {

/// A transfer: one operand value moving from a shared source to an ALU port
/// in one step.
struct Transfer {
  int step = 0;
  alloc::Source source;
  int alu = 0;
  bool leftPort = true;
};

/// Every operand value that rides a shared wire: constants and primary
/// inputs are hardwired and excluded. Shared by planBuses (which assigns
/// buses) and busDemandPerStep (which only counts concurrent sources).
std::vector<Transfer> collectTransfers(const Datapath& d,
                                       const ControllerFsm& fsm) {
  const dfg::Dfg& g = *d.graph;
  std::vector<Transfer> transfers;

  for (const MicroOp& m : fsm.microOps) {
    const auto ai = static_cast<std::size_t>(m.alu);
    const alloc::MuxArrangement::Ports p =
        d.arrangement[ai].portSignals(g.node(m.op));
    auto addRead = [&](bool leftPort, dfg::NodeId signal) {
      const auto& w = leftPort ? d.leftPort[ai] : d.rightPort[ai];
      auto sel = w.selectOf.find({m.op, signal});
      if (sel == w.selectOf.end()) return;
      const alloc::Source& src = w.sources[sel->second];
      // Constants and primary-input ports are hardwired, not bused.
      if (src.kind == alloc::Source::Kind::Constant ||
          src.kind == alloc::Source::Kind::PrimaryInput)
        return;
      transfers.push_back({m.step, src, m.alu, leftPort});
    };
    if (p.left != dfg::kNoNode) addRead(true, p.left);
    if (p.right != dfg::kNoNode) addRead(false, p.right);
  }
  return transfers;
}

}  // namespace

std::vector<int> busDemandPerStep(const Datapath& d, const ControllerFsm& fsm) {
  std::vector<int> demand(static_cast<std::size_t>(fsm.numSteps) + 1, 0);
  std::map<int, std::set<alloc::Source>> byStep;
  for (const Transfer& t : collectTransfers(d, fsm))
    byStep[t.step].insert(t.source);
  for (const auto& [step, sources] : byStep)
    if (step >= 1 && step <= fsm.numSteps)
      demand[static_cast<std::size_t>(step)] = static_cast<int>(sources.size());
  return demand;
}

std::vector<std::map<alloc::Source, int>> busAssignmentPerStep(
    const Datapath& d, const ControllerFsm& fsm) {
  std::vector<std::map<alloc::Source, int>> assign(
      static_cast<std::size_t>(fsm.numSteps) + 1);
  for (const Transfer& t : collectTransfers(d, fsm)) {
    if (t.step < 1 || t.step > fsm.numSteps) continue;
    auto& buses = assign[static_cast<std::size_t>(t.step)];
    buses.try_emplace(t.source, static_cast<int>(buses.size()));
  }
  return assign;
}

BusPlan planBuses(const Datapath& d, const ControllerFsm& fsm,
                  const BusCostModel& model) {
  const std::vector<Transfer> transfers = collectTransfers(d, fsm);
  const auto assign = busAssignmentPerStep(d, fsm);

  BusPlan plan;
  plan.transfersPerStep.assign(static_cast<std::size_t>(fsm.numSteps) + 1, 0);

  // Per step: transfers of the same source share one bus (one broadcast);
  // distinct sources get the lowest free bus index.
  std::set<std::pair<alloc::Source, int>> drivers;       // (source, bus)
  std::set<std::tuple<int, bool, int>> receivers;        // (alu, port, bus)
  for (const Transfer& t : transfers) {
    if (t.step < 1 || t.step > fsm.numSteps) continue;
    const int bus = assign[static_cast<std::size_t>(t.step)].at(t.source);
    drivers.insert({t.source, bus});
    receivers.insert({t.alu, t.leftPort, bus});
    ++plan.transfersPerStep[static_cast<std::size_t>(t.step)];
  }
  for (const auto& buses : assign)
    plan.busCount = std::max(plan.busCount, static_cast<int>(buses.size()));
  plan.driverCount = static_cast<int>(drivers.size());
  plan.receiverCount = static_cast<int>(receivers.size());
  plan.totalCost = plan.busCount * model.busWireUm2 +
                   plan.driverCount * model.driverUm2 +
                   plan.receiverCount * model.receiverUm2;
  return plan;
}

std::string BusPlan::toString() const {
  return util::format(
      "%d bus(es), %d driver(s), %d receiver tap(s), cost %.0f um^2",
      busCount, driverCount, receiverCount, totalCost);
}

}  // namespace mframe::rtl
