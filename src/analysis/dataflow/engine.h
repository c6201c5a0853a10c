// Dataflow engines: a one-sweep solver over a DFG and a worklist solver
// over graphs that may loop.
//
// solve() is parameterized over a Domain that supplies the transfer
// function. Node ids of a valid DFG are topological (validate() rejects an
// input id not below the node's own), so one pass in id order computes the
// solution: ascending for a forward pass (dependences = data inputs),
// descending for a backward one (dependences = consumers). Each node's
// transfer runs once, on the final values of its dependences. A graph out
// of that order is refused with std::invalid_argument naming the node.
//
// Domain concept:
//   struct D {
//     using Value = ...;
//     Value transfer(const dfg::Node& n, const std::vector<Value>& deps) const;
//   };
// `deps` holds, in order, the values of n.inputs (forward) or of the
// consumers of n (backward).
#pragma once

#include <deque>
#include <stdexcept>
#include <vector>

#include "dfg/dfg.h"
#include "trace/trace.h"
#include "util/strings.h"

namespace mframe::analysis::dataflow {

enum class Direction : unsigned char { Forward, Backward };

/// Solution plus the work the engine did to reach it.
template <typename Value>
struct FixpointResult {
  std::vector<Value> values;  ///< one per node, indexed by NodeId
  int visits = 0;             ///< total node evaluations
};

/// Revisits of one node before solveGraph applies widen(). Generous:
/// monotone domains converge long before.
inline constexpr int kWidenThreshold = 64;

template <typename Domain>
FixpointResult<typename Domain::Value> solve(const dfg::Dfg& g,
                                             const Domain& domain,
                                             Direction dir) {
  using Value = typename Domain::Value;
  const std::size_t n = g.size();
  const bool forward = dir == Direction::Forward;

  FixpointResult<Value> r;
  r.values.resize(n);
  std::vector<Value> deps;
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<dfg::NodeId>(forward ? i : n - 1 - i);
    const dfg::Node& node = g.node(id);
    deps.clear();
    if (forward) {
      for (dfg::NodeId in : node.inputs) {
        if (in >= id)
          throw std::invalid_argument(util::format(
              "dataflow: node '%s' (id %u) reads node %u, which is not "
              "below it (graph not in topological order)",
              node.name.c_str(), id, in));
        deps.push_back(r.values[in]);
      }
    } else {
      for (dfg::NodeId out : g.succs(id)) {
        if (out <= id)
          throw std::invalid_argument(util::format(
              "dataflow: node '%s' (id %u) feeds node %u, which is not "
              "above it (graph not in topological order)",
              node.name.c_str(), id, out));
        deps.push_back(r.values[out]);
      }
    }
    r.values[id] = domain.transfer(node, deps);
  }
  r.visits = static_cast<int>(n);
  trace::bump(trace::Counter::DataflowWorklistIterations,
              static_cast<std::uint64_t>(n));
  return r;
}

// Worklist solver over an arbitrary dependence graph given as adjacency
// lists, for clients whose nodes are not DFG nodes and whose edges may form
// loops (the controller step graph of audit and range). Every node is
// seeded in id order; a node whose value changes re-queues its dependents,
// and a node revisited more than the widening threshold has its value
// forced up the lattice, so the fixpoint terminates on any graph shape.
//
// GraphDomain concept:
//   struct D {
//     using Value = ...;
//     Value initial(int node) const;
//     Value transfer(int node, const std::vector<Value>& deps) const;
//     static Value widen(const Value& previous, const Value& next);
//   };
// `deps` holds the values of deps[node] in list order. Visits land in
// dataflow.worklistIterations, as solve()'s do.
//
// `opt.widenThreshold` lowers the revisit budget before widen() fires —
// domains with tall lattices (the range analysis' intervals around FSM
// loops) converge orders of magnitude faster with an early, targeted
// widening than by climbing one value at a time to the default cap.
// `opt.widenings` (when non-null) receives the number of nodes whose value
// was forced up the lattice, for domain-specific counters.
struct SolveGraphOptions {
  int widenThreshold = kWidenThreshold;
  int* widenings = nullptr;
};

template <typename Domain>
FixpointResult<typename Domain::Value> solveGraph(
    int numNodes, const std::vector<std::vector<int>>& deps,
    const Domain& domain, const SolveGraphOptions& opt = {}) {
  using Value = typename Domain::Value;
  const auto n = static_cast<std::size_t>(numNodes);

  // Reverse edges: when a node's value changes, its dependents re-run.
  std::vector<std::vector<int>> uses(n);
  for (std::size_t v = 0; v < n; ++v)
    for (int d : deps[v]) uses[static_cast<std::size_t>(d)].push_back(static_cast<int>(v));

  FixpointResult<Value> r;
  r.values.reserve(n);
  for (int v = 0; v < numNodes; ++v) r.values.push_back(domain.initial(v));

  std::deque<int> work;
  std::vector<char> queued(n, 1);
  std::vector<int> revisits(n, 0);
  for (int v = 0; v < numNodes; ++v) work.push_back(v);

  bool widened = false;
  std::vector<Value> depVals;
  while (!work.empty()) {
    const int v = work.front();
    work.pop_front();
    queued[static_cast<std::size_t>(v)] = 0;
    ++r.visits;

    depVals.clear();
    for (int d : deps[static_cast<std::size_t>(v)])
      depVals.push_back(r.values[static_cast<std::size_t>(d)]);

    Value next = domain.transfer(v, depVals);
    if (next == r.values[static_cast<std::size_t>(v)]) continue;
    if (++revisits[static_cast<std::size_t>(v)] > opt.widenThreshold) {
      next = domain.widen(r.values[static_cast<std::size_t>(v)], next);
      widened = true;
      if (opt.widenings != nullptr) ++*opt.widenings;
      if (next == r.values[static_cast<std::size_t>(v)]) continue;
    }
    r.values[static_cast<std::size_t>(v)] = std::move(next);

    for (int u : uses[static_cast<std::size_t>(v)])
      if (!queued[static_cast<std::size_t>(u)]) {
        queued[static_cast<std::size_t>(u)] = 1;
        work.push_back(u);
      }
  }
  trace::bump(trace::Counter::DataflowWorklistIterations,
              static_cast<std::uint64_t>(r.visits));
  if (widened) trace::bump(trace::Counter::DataflowWidenings);
  return r;
}

}  // namespace mframe::analysis::dataflow
