// The OPT diagnostic family and the --fix rewriter, built on the dataflow
// passes. lintDataflow runs every pass and reports optimization
// opportunities as structured diagnostics:
//
//   OPT001  operation computes a compile-time constant (foldable)
//   OPT002  operation is dead once constants are folded
//   OPT003  operation duplicates an expression another operation produces
//   OPT004  operation is declared wider than its value range requires
//
// applyFixes performs the rewrites OPT001/OPT002 suggest — constant folding
// and dead-code elimination — returning a new graph that computes the same
// outputs (the fold→prove round-trip tests hold it to the translation
// validator's standard). Duplicate-expression and width findings are
// detection-only: merging ops or narrowing declared widths changes the
// design interface, so those stay with the designer.
#pragma once

#include "analysis/dataflow/passes.h"
#include "analysis/diagnostic.h"

namespace mframe::analysis::dataflow {

/// Everything the passes learned about one graph, plus the OPT report.
struct DataflowResult {
  std::vector<ConstValue> constants;
  std::vector<Interval> ranges;
  std::vector<int> widths;  ///< inferred bits per node
  std::vector<char> demand;
  std::vector<char> needed;
  std::vector<DuplicateGroup> duplicates;
  int engineVisits = 0;  ///< total node evaluations across all passes
  LintReport report;     ///< the OPT diagnostics
};

/// Run constant / range / liveness / CSE analysis and emit OPT diagnostics.
DataflowResult lintDataflow(const dfg::Dfg& g);

/// Fold constant-valued operations into Const nodes and drop operations
/// whose results are never needed (plus Const leaves orphaned by the
/// rewrite). Input nodes always survive — the primary-input interface is
/// part of the design contract even when a value goes unused. Node ids are
/// remapped compactly, preserving topological order; `fixed.validate()`
/// holds whenever `g.validate()` did.
dfg::Dfg applyFixes(const dfg::Dfg& g, const DataflowResult& analysis);

}  // namespace mframe::analysis::dataflow
