// Lattice value types for the dataflow framework.
//
// Two domains cover the PR's analyses: a flat constant lattice
// (Unknown < Const(v) < Varying) for constant propagation, and an interval
// lattice over the unsigned word domain for value-range / bit-width
// inference. Both are plain value types; the transfer functions live in
// passes.cpp and the solvers in engine.h. Arithmetic on intervals is
// deliberately conservative: any operation that may wrap the word width
// clamps to the full range rather than reasoning about modular wrap-around.
#pragma once

#include <algorithm>

#include "sim/eval.h"

namespace mframe::analysis::dataflow {

/// Flat constant lattice: Unknown (no information yet, identity of join),
/// Const (exactly one run-time value), Varying (more than one possible).
struct ConstValue {
  enum class State : unsigned char { Unknown, Const, Varying };
  State state = State::Unknown;
  sim::Word value = 0;  ///< meaningful only when state == Const

  static ConstValue unknown() { return {}; }
  static ConstValue varying() { return {State::Varying, 0}; }
  static ConstValue constant(sim::Word v) { return {State::Const, v}; }

  bool isConst() const { return state == State::Const; }

  friend bool operator==(const ConstValue& a, const ConstValue& b) {
    if (a.state != b.state) return false;
    return a.state != State::Const || a.value == b.value;
  }

  static ConstValue join(const ConstValue& a, const ConstValue& b) {
    if (a.state == State::Unknown) return b;
    if (b.state == State::Unknown) return a;
    if (a == b) return a;
    return varying();
  }
};

/// Number of bits needed to represent `v`: 1 for 0 and 1, 2 for 2..3, ...
inline int bitsFor(sim::Word v) {
  int bits = 1;
  while (v > 1) {
    v >>= 1;
    ++bits;
  }
  return bits;
}

/// Overflow-checked word arithmetic for the interval transfer functions.
/// Each returns false when the exact result leaves [0, mask]; the caller
/// saturates the interval to TOP instead of wrapping. Built on the
/// compiler's checked intrinsics so the bound arithmetic itself can never
/// overflow, even at the 64-bit word width where `mask` offers no headroom.
inline bool checkedAdd(sim::Word a, sim::Word b, sim::Word mask,
                       sim::Word& out) {
  sim::Word r = 0;
  if (__builtin_add_overflow(a, b, &r) || r > mask) return false;
  out = r;
  return true;
}

inline bool checkedSub(sim::Word a, sim::Word b, sim::Word& out) {
  sim::Word r = 0;
  if (__builtin_sub_overflow(a, b, &r)) return false;
  out = r;
  return true;
}

inline bool checkedMul(sim::Word a, sim::Word b, sim::Word mask,
                       sim::Word& out) {
  sim::Word r = 0;
  if (__builtin_mul_overflow(a, b, &r) || r > mask) return false;
  out = r;
  return true;
}

inline bool checkedShl(sim::Word a, unsigned sh, sim::Word mask,
                       sim::Word& out) {
  if (sh >= 64 || a > (mask >> sh)) return false;
  out = a << sh;
  return true;
}

/// Closed interval [lo, hi] of unsigned word values, lo <= hi. The top
/// element is the full range of the analysis word width; there is no
/// explicit bottom (each node's value is computed once, from its inputs).
struct Interval {
  sim::Word lo = 0;
  sim::Word hi = 0;

  static Interval full(int width) { return {0, sim::maskFor(width)}; }
  static Interval constant(sim::Word v, int width) {
    const sim::Word m = v & sim::maskFor(width);
    return {m, m};
  }

  bool isConst() const { return lo == hi; }
  bool isFull(int width) const { return lo == 0 && hi == sim::maskFor(width); }

  /// Bits needed to represent every value in the interval.
  int widthNeeded() const { return bitsFor(hi); }

  friend bool operator==(const Interval&, const Interval&) = default;

  static Interval join(const Interval& a, const Interval& b) {
    return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
  }
};

}  // namespace mframe::analysis::dataflow
