// Liapunov (energy) functions (Sections 3.1 and 4.1).
//
// MFS uses a *static* function over grid positions:
//   time-constrained:      V(x, y) = x + n*y   (n = max_j over all types)
//   resource-constrained:  V(x, y) = cs*x + y
// where x is the FU-instance column and y the control step. The first makes
// every cell of step t cheaper than any cell of step t+1 ("control step t is
// selected before t+1"); the second prefers reusing an existing FU in a
// later step over adding a new FU ("a position in control step t+1 performed
// by an existing FU instead of adding a new FU in control step t").
//
// MFSA uses a *dynamic* function, V = sum of per-operation contributions
//   f = w_T*f_TIME + w_A*f_ALU + w_M*f_MUX + w_R*f_REG,
// updated at each iteration from the partially built design; the terms are
// produced by the MFSA engine and combined here.
//
// Both schedulers search a move frame by walking its dependency window
// (FrameCalculator::depWindow) rather than enumerating every cell. For MFS
// the walk finds the minimum directly: in time mode every cell of step t is
// cheaper than any of step t+1, so the earliest step with a free column
// wins, lowest column first; in resource mode every cell of column x is
// cheaper than any of column x+1, so the lowest column with a feasible step
// wins, earliest step first. MFSA's f never falls with the step for a fixed
// ALU and module under mux interconnect with non-negative weights and costs,
// so there only each candidate's earliest feasible step competes; otherwise
// every feasible step of the window does.
#pragma once

#include <algorithm>

#include "celllib/cell_library.h"

namespace mframe::core {

/// The static MFS energy function.
class MfsLiapunov {
 public:
  enum class Mode { TimeConstrained, ResourceConstrained };

  MfsLiapunov(Mode mode, int columnBound, int stepBound)
      : mode_(mode), n_(std::max(1, columnBound)), cs_(std::max(1, stepBound)) {}

  Mode mode() const { return mode_; }

  /// V at position (col, step) — x and y of the paper.
  double value(int col, int step) const {
    return mode_ == Mode::TimeConstrained
               ? static_cast<double>(col) + static_cast<double>(n_) * step
               : static_cast<double>(cs_) * col + static_cast<double>(step);
  }

  /// Energy of the nominal initial position (bottom-right corner of the
  /// table): operations conceptually start there and every legal move is
  /// energy-decreasing, which is what the monotone-trace property test
  /// asserts.
  double worstValue(int maxCol, int maxStep) const {
    return value(std::max(1, maxCol), std::max(1, maxStep));
  }

 private:
  Mode mode_;
  int n_;   ///< Max{max_j}: the column bound across types
  int cs_;  ///< control-step upper bound
};

/// Weights of the MFSA function (Section 4.1: "a weighted Liapunov
/// function"; all-ones is "an overall optimizer").
struct MfsaWeights {
  double time = 1.0;
  double alu = 1.0;
  double mux = 1.0;
  double reg = 1.0;
};

/// One candidate's term breakdown, for tracing and tests.
struct MfsaTerms {
  double fTime = 0.0;
  double fAlu = 0.0;
  double fMux = 0.0;
  double fReg = 0.0;

  double weighted(const MfsaWeights& w) const {
    return w.time * fTime + w.alu * fAlu + w.mux * fMux + w.reg * fReg;
  }
};

/// The constant C of f_TIME = C*y. Section 4.1 requires
///   C > [f^ALU_max + f^MUX_max + f^REG_max] - [f^ALU_min + f^MUX_min + f^REG_min]
/// (all minima are 0), so that a later control step can never be bought by
/// cheaper hardware. With weights, C must dominate in the weighted sum.
double mfsaTimeConstant(const celllib::CellLibrary& lib, const MfsaWeights& w);

}  // namespace mframe::core
