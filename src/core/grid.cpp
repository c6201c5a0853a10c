#include "core/grid.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace mframe::core {

void ColumnOccupancy::setPipelined(int col, bool pipelined) {
  const auto i = static_cast<std::size_t>(col);
  if (i >= pipelined_.size()) {
    if (!pipelined) return;
    pipelined_.resize(i + 1, 0);
  }
  pipelined_[i] = pipelined ? 1 : 0;
}

void ColumnOccupancy::ensureNode(dfg::NodeId n) {
  if (n >= whereCol_.size()) whereCol_.resize(n + 1, 0);
}

std::vector<int> ColumnOccupancy::cellsFor(dfg::NodeId n, int col,
                                           int step) const {
  std::vector<int> cells;
  if (isPipelined(col)) {
    // One initiation per (folded) step; later stages overlap freely.
    cells.push_back(fold(step));
  } else {
    const int cycles = g_->cyclesOf(n);
    cells.reserve(static_cast<std::size_t>(cycles));
    for (int s = step; s < step + cycles; ++s) cells.push_back(fold(s));
  }
  // Folding can alias several steps of one multicycle op onto one cell.
  std::sort(cells.begin(), cells.end());
  cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  return cells;
}

bool ColumnOccupancy::canPlace(dfg::NodeId n, int col, int step) const {
  const auto c = static_cast<std::size_t>(col);
  auto cellFree = [&](int folded) {
    const auto f = static_cast<std::size_t>(folded);
    if (c >= cells_.size() || f >= cells_[c].size()) return true;
    for (dfg::NodeId other : cells_[c][f]) {
      if (other == n) continue;
      if (!g_->mutuallyExclusive(n, other)) return false;
    }
    return true;
  };
  if (plainCells(col)) {
    // No folding, no pipelining: the cells are distinct consecutive steps —
    // probe them directly without materializing a cell list.
    const int cycles = g_->cyclesOf(n);
    for (int s = step; s < step + cycles; ++s)
      if (!cellFree(s)) return false;
    return true;
  }
  if (overlapsOwnInitiation(g_->cyclesOf(n), latency_, isPipelined(col)))
    return false;
  for (int f : cellsFor(n, col, step))
    if (!cellFree(f)) return false;
  return true;
}

void ColumnOccupancy::place(dfg::NodeId n, int col, int step) {
  assert(!isPlaced(n) && col >= 0);
  const auto c = static_cast<std::size_t>(col);
  if (c >= cells_.size()) cells_.resize(c + 1);
  std::vector<Cell>& column = cells_[c];
  // A walked column's skip pointers hop over the cells an unconditional op
  // fills from now on.
  std::vector<int>* skip = c < skip_.size() && !skip_[c].empty() &&
                                   g_->node(n).branchPath.empty()
                               ? &skip_[c]
                               : nullptr;
  for (int f : cellsFor(n, col, step)) {
    assert(f >= 0);
    const auto i = static_cast<std::size_t>(f);
    if (i >= column.size()) column.resize(i + 1);
    column[i].push_back(n);
    if (skip == nullptr) continue;
    if (i + 1 >= skip->size()) {  // keep an open last entry
      const int old = static_cast<int>(skip->size());
      skip->resize(i + 2);
      std::iota(skip->begin() + old, skip->end(), old);
    }
    if ((*skip)[i] == f) (*skip)[i] = f + 1;
  }
  ensureNode(n);
  whereCol_[n] = col;
}

std::vector<int>& ColumnOccupancy::skipPointers(int col) {
  const auto c = static_cast<std::size_t>(col);
  if (c >= skip_.size()) skip_.resize(c + 1);
  std::vector<int>& skip = skip_[c];
  if (!skip.empty()) return skip;
  const std::size_t steps = c < cells_.size() ? cells_[c].size() : 0;
  skip.resize(steps + 1);
  std::iota(skip.begin(), skip.end(), 0);
  for (std::size_t f = 0; f < steps; ++f)
    for (dfg::NodeId other : cells_[c][f])
      if (g_->node(other).branchPath.empty()) {
        skip[f] = static_cast<int>(f) + 1;
        break;
      }
  return skip;
}

int ColumnOccupancy::nextOpen(std::vector<int>& skip, int step) {
  // Steps past the array are open. Every pointer leads forward to the last
  // entry at worst, so halving the path as it goes stays in range.
  const auto size = static_cast<int>(skip.size());
  while (step < size && skip[static_cast<std::size_t>(step)] != step) {
    int& next = skip[static_cast<std::size_t>(step)];
    next = skip[static_cast<std::size_t>(next)];
    step = next;
    ++probes_;
  }
  return step;
}

int ColumnOccupancy::placeableAfter(dfg::NodeId n, int col, int from,
                                    int to) {
  assert(!isPlaced(n) && from >= 0);
  if (latency_ > 0) {
    // Folded: one cell stands for many steps, so canPlace decides each.
    // Steps L apart fold onto the same cells, so L steps decide the window.
    const int last = std::min(to, from + latency_ - 1);
    for (int s = from + 1; s <= last; ++s) {
      ++probes_;
      if (canPlace(n, col, s)) return s;
    }
    return 0;
  }
  std::vector<int>& skip = skipPointers(col);
  for (int s = nextOpen(skip, from + 1); s <= to; s = nextOpen(skip, s + 1)) {
    ++probes_;
    if (canPlace(n, col, s)) return s;
  }
  return 0;
}

Grid::Grid(const dfg::Dfg& g, const sched::Constraints& c) : g_(&g) {
  tables_.reserve(dfg::kNumFuTypes);
  for (std::size_t t = 0; t < dfg::kNumFuTypes; ++t) {
    tables_.emplace_back(g, c);
    if (c.pipelinedFus.count(static_cast<dfg::FuType>(t))) {
      // All columns of a pipelined type behave pipelined; flag generously.
      for (int col = 1; col <= static_cast<int>(g.size()) + 1; ++col)
        tables_.back().setPipelined(col, true);
    }
  }
}

bool Grid::canPlace(dfg::NodeId n, int col, int step) const {
  return table(dfg::fuTypeOf(g_->kindOf(n))).canPlace(n, col, step);
}

void Grid::place(dfg::NodeId n, int col, int step) {
  table(dfg::fuTypeOf(g_->kindOf(n))).place(n, col, step);
}

int Grid::placeFirstFree(dfg::NodeId n, int step, int maxCol) {
  for (int col = 1; col <= maxCol; ++col)
    if (canPlace(n, col, step)) {
      place(n, col, step);
      return col;
    }
  return 0;
}

}  // namespace mframe::core
