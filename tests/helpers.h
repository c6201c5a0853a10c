// Shared fixtures/builders for the libmframe test suite.
#pragma once

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "dfg/builder.h"
#include "sched/schedule.h"
#include "trace/trace.h"

namespace mframe::test {

/// The whole text of `path` ("" when it cannot be read).
inline std::string readFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Counters are off by default (bump() is a no-op); flip them on for a
/// test's counter assertions and restore the previous state on exit.
struct CounterScope {
  bool prev = trace::countersEnabled();
  CounterScope() { trace::enableCounters(true); }
  ~CounterScope() { trace::enableCounters(prev); }
};

/// a+b -> s; c-d -> t; s*t -> y; y<lim -> f. Critical path 3.
inline dfg::Dfg smallDiamond() {
  dfg::Builder b("diamond");
  const auto a = b.input("a");
  const auto bb = b.input("b");
  const auto c = b.input("c");
  const auto d = b.input("d");
  const auto lim = b.input("lim");
  const auto s = b.add(a, bb, "s");
  const auto t = b.sub(c, d, "t");
  const auto y = b.mul(s, t, "y");
  const auto f = b.lt(y, lim, "f");
  b.output(y, "y");
  b.output(f, "f");
  return std::move(b).build();
}

/// A pure chain of n additions (critical path n).
inline dfg::Dfg addChain(int n) {
  dfg::Builder b("chain" + std::to_string(n));
  auto prev = b.input("x0");
  const auto one = b.input("k");
  for (int i = 1; i <= n; ++i)
    prev = b.add(prev, one, "c" + std::to_string(i));
  b.output(prev, "y");
  return std::move(b).build();
}

/// n independent additions (width n, depth 1).
inline dfg::Dfg addParallel(int n) {
  dfg::Builder b("par" + std::to_string(n));
  const auto x = b.input("x");
  const auto y = b.input("y");
  for (int i = 0; i < n; ++i) b.output(b.add(x, y, "p" + std::to_string(i)), "o" + std::to_string(i));
  return std::move(b).build();
}

/// m1 = a*b and m2 = a*m1, two cycles each, then s1 = m2 + b — the latency
/// fixture tools/designs/multicycle.dfg. Under latency 1 an unpipelined
/// multiplier would overlap each op's own next initiation.
inline dfg::Dfg multicycleChain() {
  dfg::Builder b("mc");
  const auto a = b.input("a");
  const auto bb = b.input("b");
  const auto m1 = b.mul(a, bb, "m1", 2);
  const auto m2 = b.mul(a, m1, "m2", 2);
  b.output(b.add(m2, bb, "s1"), "y");
  return std::move(b).build();
}

/// Latency 1 over six steps: too short for multicycleChain's unpipelined
/// multiplications.
inline sched::Constraints latencyOne() {
  sched::Constraints c;
  c.timeSteps = 6;
  c.latency = 1;
  return c;
}

/// True when `error` names op m1 as overlapping its own next initiation.
inline bool namesSelfOverlap(const std::string& error) {
  return error.find("'m1' overlaps its own next initiation") !=
         std::string::npos;
}

/// Two ops in exclusive branch arms plus a join-side op.
inline dfg::Dfg branchy() {
  dfg::Builder b("branchy");
  const auto a = b.input("a");
  const auto c = b.input("c");
  b.pushBranch("c1", "t");
  const auto t1 = b.add(a, c, "t1");
  b.popBranch();
  b.pushBranch("c1", "e");
  const auto e1 = b.add(a, c, "e1");
  b.popBranch();
  const auto j = b.sub(t1, e1, "j");
  b.output(j, "j");
  return std::move(b).build();
}

}  // namespace mframe::test
