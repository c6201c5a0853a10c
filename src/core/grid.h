// The 2-D placement tables of Section 2.3: one (FU instance x control step)
// table per FU type ("the complete space will be a 3-dimensional space where
// the third dimension represents the type").
//
// ColumnOccupancy tracks which operations sit where in one column space and
// encapsulates every co-location rule the paper defines:
//  * mutually exclusive operations may share a cell (Section 5.1);
//  * multicycle operations hold their column for `cycles` consecutive steps
//    (Section 5.3);
//  * on a structurally pipelined column, operations conflict only when they
//    start in the same step (Section 5.5.1);
//  * with functional-pipelining latency L, steps are folded mod L, because
//    "operations scheduled into control step t + k*L run concurrently"
//    (Section 5.5.2).
//
// Storage is dense: each column keeps an array of cells indexed by folded
// step, each cell the list of ops sitting there; per-node placements live
// in id-indexed arrays, and the pipelined flag is a per-column bit. The
// schedulers probe canPlace() millions of times on large graphs, so a probe
// is two array reads and an emptiness test — no key hashing and no tree
// walk. Both dimensions grow on demand as ops are placed.
//
// firstPlaceable() answers MFSA's per-ALU question — the first step of a
// window where an op can start — without probing every occupied step on
// the way. Each column keeps skip pointers, a union-find "next open step"
// array with path compression, that jump over every cell holding an
// unconditional op in one hop: such a cell blocks every op, because an op
// with an empty branch path is mutually exclusive with none. A cell that
// holds only conditional ops may still take an op of another arm, so the
// pointers stop there and canPlace() decides, as it decides every landing
// step. A latency-folded column, where one cell stands for many steps,
// has no pointers: canPlace() decides each step, and the first L steps of
// a window decide it all, since steps L apart fold onto the same cells. So
// the answer is always the step-by-step canPlace walk's. A column's array
// is built on its first walk past a blocked step and kept up by place()
// only after that: MFS and the baselines place through Grid and never
// walk, so they pay nothing for it.
//
// MFS and the ASAP, list and FDS baselines compose one ColumnOccupancy per
// FU type (class Grid); MFSA reuses ColumnOccupancy with one column per
// allocated ALU instance.
#pragma once

#include <cstdint>
#include <vector>

#include "dfg/dfg.h"
#include "sched/schedule.h"

namespace mframe::core {

/// Under functional-pipelining latency L > 0 an op restarts every L steps,
/// so on an unpipelined unit one of more than L cycles overlaps its own next
/// initiation. A pipelined unit takes one initiation per step. The caller
/// decides what `pipelined` means: Constraints::pipelinedFus for MFS and the
/// baselines, the module's stage count for MFSA (before binding, whether
/// the library has a multi-stage module for the type).
inline bool overlapsOwnInitiation(int cycles, int latency, bool pipelined) {
  return latency > 0 && !pipelined && cycles > latency;
}

class ColumnOccupancy {
 public:
  ColumnOccupancy(const dfg::Dfg& g, const sched::Constraints& c)
      : g_(&g), latency_(c.latency) {}

  /// Mark a column as structurally pipelined (start-step conflicts only).
  void setPipelined(int col, bool pipelined);
  bool isPipelined(int col) const {
    const auto i = static_cast<std::size_t>(col);
    return i < pipelined_.size() && pipelined_[i] != 0;
  }

  /// Can `n` start at `step` on `col` without an occupancy conflict?
  bool canPlace(dfg::NodeId n, int col, int step) const;

  void place(dfg::NodeId n, int col, int step);

  /// The first step in [from, to] where canPlace(n, col, step) holds, or 0
  /// when there is none. `n` must not be placed yet: the skip pointers
  /// treat every unconditional occupant as a conflict, `n` itself included.
  /// Most walks take their first step, so canPlace tries it before any
  /// pointer is read.
  int firstPlaceable(dfg::NodeId n, int col, int from, int to) {
    if (from > to) return 0;
    ++probes_;
    return canPlace(n, col, from) ? from : placeableAfter(n, col, from, to);
  }

  /// Steps examined by every firstPlaceable() walk so far: the steps
  /// canPlace() decided plus the skip-pointer hops.
  std::uint64_t walkProbes() const { return probes_; }

  bool isPlaced(dfg::NodeId n) const {
    return n < whereCol_.size() && whereCol_[n] != 0;
  }

 private:
  /// The ops occupying one (column, folded step) cell.
  using Cell = std::vector<dfg::NodeId>;

  /// Folded steps this op occupies if started at `step` on `col`.
  std::vector<int> cellsFor(dfg::NodeId n, int col, int step) const;
  int fold(int step) const { return latency_ > 0 ? (step - 1) % latency_ : step; }
  /// True when the op's cells are (col, step)..(col, step+cycles-1) with no
  /// folding aliasing — the hot case that needs no materialized cell list.
  bool plainCells(int col) const { return latency_ <= 0 && !isPipelined(col); }
  void ensureNode(dfg::NodeId n);
  /// firstPlaceable's walk over (from, to] once `from` is blocked.
  int placeableAfter(dfg::NodeId n, int col, int from, int to);
  /// The column's skip pointers, built from its cells on the first call.
  std::vector<int>& skipPointers(int col);
  /// The first step >= `step` whose cell holds no unconditional op.
  int nextOpen(std::vector<int>& skip, int step);

  const dfg::Dfg* g_;
  int latency_;
  std::vector<char> pipelined_;             ///< by column
  std::vector<std::vector<Cell>> cells_;    ///< [column][folded step]
  std::vector<int> whereCol_;   ///< by node; 0 = not placed
  /// [column][step]: the step itself when its cell holds no unconditional
  /// op, else a later step; the last entry is always open. Empty until
  /// the column's first walk past a blocked step.
  std::vector<std::vector<int>> skip_;
  std::uint64_t probes_ = 0;
};

/// The 3-D space of MFS and the baselines: one column table per FU type.
class Grid {
 public:
  Grid(const dfg::Dfg& g, const sched::Constraints& c);

  ColumnOccupancy& table(dfg::FuType t) { return tables_[static_cast<std::size_t>(t)]; }
  const ColumnOccupancy& table(dfg::FuType t) const {
    return tables_[static_cast<std::size_t>(t)];
  }

  bool canPlace(dfg::NodeId n, int col, int step) const;
  void place(dfg::NodeId n, int col, int step);

  /// Place `n` at `step` in the lowest column of [1, maxCol] that can hold
  /// it, and return that column; 0 when none can.
  int placeFirstFree(dfg::NodeId n, int step, int maxCol);

 private:
  const dfg::Dfg* g_;
  std::vector<ColumnOccupancy> tables_;
};

}  // namespace mframe::core
