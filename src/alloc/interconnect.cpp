#include "alloc/interconnect.h"

#include <algorithm>
#include <tuple>

#include "util/strings.h"

namespace mframe::alloc {

std::string Source::toString(const dfg::Dfg& g) const {
  switch (kind) {
    case Kind::Register: return util::format("R%d", index);
    case Kind::AluOut: return util::format("ALU%d.out", index);
    case Kind::PrimaryInput: return "in:" + g.node(node).name;
    case Kind::Constant: return util::format("const:%ld", g.node(node).constValue);
  }
  return "?";
}

namespace {

/// Entry `n` of a NodeId-indexed table, -1 past its end.
int entryOf(const std::vector<int>& table, dfg::NodeId n) {
  return n < table.size() ? table[n] : -1;
}

bool readsBefore(const PortWiring::Select& a, const PortWiring::Select& b) {
  return std::tie(a.reader, a.signal) < std::tie(b.reader, b.signal);
}

}  // namespace

SourceResolver::SourceResolver(const dfg::Dfg& g, const sched::Schedule& s,
                               const std::vector<int>& regOfSignal,
                               const std::vector<int>& aluOf)
    : g_(&g), s_(&s), regOfSignal_(&regOfSignal), aluOf_(&aluOf) {}

Source SourceResolver::resolve(dfg::NodeId reader, dfg::NodeId signal) const {
  const dfg::Node& sig = g_->node(signal);
  if (sig.kind == dfg::OpKind::Const)
    return {Source::Kind::Constant, 0, signal};

  const int reg = entryOf(*regOfSignal_, signal);
  if (sig.kind == dfg::OpKind::Input) {
    if (reg >= 0) return {Source::Kind::Register, reg, dfg::kNoNode};
    return {Source::Kind::PrimaryInput, 0, signal};  // unconsumed input port
  }

  // Chained read: the reader starts in the step where the producer finishes.
  const int alu = entryOf(*aluOf_, signal);
  const int producerEnd = s_->endStepOf(signal);
  if (s_->isPlaced(reader) && s_->stepOf(reader) == producerEnd && alu >= 0)
    return {Source::Kind::AluOut, alu, dfg::kNoNode};
  if (reg >= 0) return {Source::Kind::Register, reg, dfg::kNoNode};
  // No register and not chained: fall back to the producer's ALU output
  // (only reachable on partial designs).
  return {Source::Kind::AluOut, alu, dfg::kNoNode};
}

int PortWiring::selectFor(dfg::NodeId reader, dfg::NodeId signal) const {
  const Select key{reader, signal, -1};
  const auto it =
      std::lower_bound(selects.begin(), selects.end(), key, readsBefore);
  return it != selects.end() && it->reader == reader && it->signal == signal
             ? it->select
             : -1;
}

PortWiring wirePort(const SourceResolver& resolver,
                    const std::vector<std::pair<dfg::NodeId, dfg::NodeId>>& reads) {
  PortWiring w;
  w.selects.reserve(reads.size());
  for (const auto& [reader, signal] : reads) {
    const Source src = resolver.resolve(reader, signal);
    auto it = std::find(w.sources.begin(), w.sources.end(), src);
    if (it == w.sources.end()) it = w.sources.insert(w.sources.end(), src);
    w.selects.push_back(
        {reader, signal, static_cast<int>(it - w.sources.begin())});
  }
  // A read listed twice resolves to the same source, hence the same select,
  // so one entry per (reader, signal) stays.
  std::sort(w.selects.begin(), w.selects.end(), readsBefore);
  w.selects.erase(std::unique(w.selects.begin(), w.selects.end(),
                              [](const auto& a, const auto& b) {
                                return a.reader == b.reader &&
                                       a.signal == b.signal;
                              }),
                  w.selects.end());
  return w;
}

}  // namespace mframe::alloc
